package core

import (
	"time"

	"upcxx/internal/gasnet"
)

// Futures-first one-sided operations: the non-blocking counterparts of
// Read/Write/Copy/ReadSlice returning a chainable *Future instead of
// taking an *Event. They charge the same model costs as the Event
// paths (NB initiation now, transfer completion at the modeled finish
// time) and register with the enclosing Finish, so a Finish over a
// chain of ReadAsync→Then links waits for all of it.
//
// Backend behavior:
//
//   - On the wire conduit the request frames leave immediately and the
//     future resolves from progress dispatch when the last reply
//     lands (gasnet.AsyncConduit) — genuine communication/computation
//     overlap in wall-clock time, which TestFuturesOverlapBeatsBlocking
//     (internal/spmd) holds.
//   - In-process a remote access is a direct segment move, so the data
//     is staged eagerly and the future resolves immediately carrying
//     the modeled completion time; Get/continuation timestamps keep
//     the virtual-time overlap accounting exact, mirroring AsyncCopy.
//
// Failure behavior (resilient wire jobs, Config.Resilient): an
// operation whose target dies fails its future with a typed
// ErrRankDead instead of hanging — Get panics with the cause, Err
// returns it, Then-chains propagate it. Attach a RetryPolicy
// (WithRetry) to also bound each attempt with a reply deadline and
// re-issue lost transfers; reads and writes are idempotent, so
// retrying them is always safe.

// nbFuture builds the future of one non-blocking op, registered with
// the enclosing Finish; settle resolves it and fail fails it, either
// way crediting the scope exactly once.
func nbFuture[T any](me *Rank) (f *Future[T], settle func(v T, t float64), fail func(err error, t float64)) {
	f = newFuture[T](me)
	fs := f.fs
	if fs != nil {
		fs.add(1)
	}
	settle = func(v T, t float64) {
		// Resolve before crediting the scope: continuations run first
		// and may register follow-up work, so the Finish count cannot
		// transiently drain mid-chain.
		f.resolve(v, t, me)
		if fs != nil {
			fs.childDone(t, me)
		}
	}
	fail = func(err error, t float64) {
		f.fail(err, t, me)
		if fs != nil {
			fs.childDone(t, me)
		}
	}
	return
}

// asyncCd returns the conduit's non-blocking extension when the target
// is remote on a wire job, nil otherwise.
func (r *Rank) asyncCd(target int) gasnet.AsyncConduit {
	if target == r.id {
		return nil
	}
	return r.caps.Async
}

// ReadAsync starts a non-blocking one-sided read of the element at p
// and returns its future — the rvalue use of a shared object without
// the round-trip stall. Chain with Then to consume the value when it
// arrives. Accepts WithRetry.
func ReadAsync[T any](me *Rank, p GlobalPtr[T], opts ...AsyncOpt) *Future[T] {
	var cfg asyncCfg
	for _, o := range opts {
		o.applyAsync(&cfg)
	}
	me.enter()
	defer me.exit()
	n := int(sizeOf[T]())
	me.ep.Stats.Gets++
	me.ep.Stats.GetBytes += int64(n)
	mo := me.job.model
	me.ep.Clock.Advance(mo.NBInitCost())
	completion := me.Clock() + mo.NBCompleteCost(me.id, int(p.rank), n)

	f, settle, fail := nbFuture[T](me)
	me.aggPreBlock()
	if ac := me.asyncCd(int(p.rank)); ac != nil {
		buf := make([]byte, n)
		me.startAsync(cfg.retry,
			func(timeout time.Duration, done func(error)) error {
				return ac.GetAsync(int(p.rank), p.Offset(), buf, timeout, done)
			},
			func() {
				var v T
				copy(valueBytes(&v), buf)
				settle(v, maxTime(completion, me.Clock()))
				// Cut-through: continuations the resolution just ran may
				// have buffered aggregated ops; ship them before the wait
				// loop blocks again (see initAgg's ack cut-through).
				me.aggPreBlock()
			},
			func(err error) {
				fail(err, maxTime(completion, me.Clock()))
				me.aggPreBlock() // cut-through for failure continuations too
			})
		return f
	}
	var v T
	me.mustCd(me.cd.Get(int(p.rank), p.Offset(), valueBytes(&v)))
	settle(v, completion)
	return f
}

// WriteAsync starts a non-blocking one-sided write of v to p and
// returns its completion future. Accepts WithRetry.
func WriteAsync[T any](me *Rank, p GlobalPtr[T], v T, opts ...AsyncOpt) *Future[struct{}] {
	var cfg asyncCfg
	for _, o := range opts {
		o.applyAsync(&cfg)
	}
	me.enter()
	defer me.exit()
	n := int(sizeOf[T]())
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(n)
	mo := me.job.model
	me.ep.Clock.Advance(mo.NBInitCost())
	completion := me.Clock() + mo.NBCompleteCost(me.id, int(p.rank), n)

	f, settle, fail := nbFuture[struct{}](me)
	me.aggPreBlock()
	if ac := me.asyncCd(int(p.rank)); ac != nil {
		buf := append([]byte(nil), valueBytes(&v)...)
		me.startAsync(cfg.retry,
			func(timeout time.Duration, done func(error)) error {
				return ac.PutAsync(int(p.rank), p.Offset(), buf, timeout, done)
			},
			func() {
				settle(struct{}{}, maxTime(completion, me.Clock()))
				me.aggPreBlock() // cut-through, as in ReadAsync
			},
			func(err error) {
				fail(err, maxTime(completion, me.Clock()))
				me.aggPreBlock()
			})
		return f
	}
	me.mustCd(me.cd.Put(int(p.rank), p.Offset(), valueBytes(&v)))
	settle(struct{}{}, completion)
	return f
}

// ReadSliceAsync starts staging len(dst) elements from shared memory
// at src into dst; the future resolves with dst once every element has
// landed. dst must stay untouched until then. Accepts WithRetry.
func ReadSliceAsync[T any](me *Rank, src GlobalPtr[T], dst []T, opts ...AsyncOpt) *Future[[]T] {
	var cfg asyncCfg
	for _, o := range opts {
		o.applyAsync(&cfg)
	}
	me.enter()
	defer me.exit()
	bytes := len(dst) * int(sizeOf[T]())
	f, settle, fail := nbFuture[[]T](me)
	if bytes == 0 {
		settle(dst, me.Clock())
		return f
	}
	me.ep.Stats.Gets++
	me.ep.Stats.GetBytes += int64(bytes)
	mo := me.job.model
	me.ep.Clock.Advance(mo.NBInitCost())
	completion := me.Clock() + mo.NBCompleteCost(me.id, int(src.rank), bytes)

	me.aggPreBlock()
	if ac := me.asyncCd(int(src.rank)); ac != nil {
		me.startAsync(cfg.retry,
			func(timeout time.Duration, done func(error)) error {
				return ac.GetAsync(int(src.rank), src.Offset(), sliceBytes(dst), timeout, done)
			},
			func() {
				settle(dst, maxTime(completion, me.Clock()))
				me.aggPreBlock() // cut-through, as in ReadAsync
			},
			func(err error) {
				fail(err, maxTime(completion, me.Clock()))
				me.aggPreBlock()
			})
		return f
	}
	me.mustCd(me.cd.Get(int(src.rank), src.Offset(), sliceBytes(dst)))
	settle(dst, completion)
	return f
}

// WriteSliceFuture starts the non-blocking WriteSlice and returns its
// completion future (the futures-first spelling of WriteSliceAsync).
// Accepts WithRetry.
func WriteSliceFuture[T any](me *Rank, dst GlobalPtr[T], src []T, opts ...AsyncOpt) *Future[struct{}] {
	var cfg asyncCfg
	for _, o := range opts {
		o.applyAsync(&cfg)
	}
	me.enter()
	defer me.exit()
	bytes := len(src) * int(sizeOf[T]())
	f, settle, fail := nbFuture[struct{}](me)
	if bytes == 0 {
		settle(struct{}{}, me.Clock())
		return f
	}
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(bytes)
	mo := me.job.model
	me.ep.Clock.Advance(mo.NBInitCost())
	completion := me.Clock() + mo.NBCompleteCost(me.id, int(dst.rank), bytes)

	me.aggPreBlock()
	if ac := me.asyncCd(int(dst.rank)); ac != nil {
		me.startAsync(cfg.retry,
			func(timeout time.Duration, done func(error)) error {
				return ac.PutAsync(int(dst.rank), dst.Offset(), sliceBytes(src), timeout, done)
			},
			func() {
				settle(struct{}{}, maxTime(completion, me.Clock()))
				me.aggPreBlock() // cut-through, as in ReadAsync
			},
			func(err error) {
				fail(err, maxTime(completion, me.Clock()))
				me.aggPreBlock()
			})
		return f
	}
	me.mustCd(me.cd.Put(int(dst.rank), dst.Offset(), sliceBytes(src)))
	settle(struct{}{}, completion)
	return f
}

// CopyAsync starts a non-blocking bulk transfer of count elements from
// src to dst and returns its completion future — the future-returning
// async_copy. Fully remote pairs stage through the initiator: on the
// wire the get and the put pipeline through progress dispatch, so the
// initiator never stalls. Accepts WithRetry; the policy applies to
// each leg independently.
func CopyAsync[T any](me *Rank, src, dst GlobalPtr[T], count int, opts ...AsyncOpt) *Future[struct{}] {
	var cfg asyncCfg
	for _, o := range opts {
		o.applyAsync(&cfg)
	}
	me.enter()
	defer me.exit()
	f, settle, fail := nbFuture[struct{}](me)
	if count < 0 {
		panic("upcxx: CopyAsync with negative count")
	}
	if count == 0 {
		settle(struct{}{}, me.Clock())
		return f
	}
	bytes := count * int(sizeOf[T]())
	mo := me.job.model
	peer := int(src.rank)
	if peer == me.id {
		peer = int(dst.rank)
	}
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(bytes)
	me.ep.Clock.Advance(mo.NBInitCost())
	completion := me.Clock() + mo.NBCompleteCost(me.id, peer, bytes)

	me.aggPreBlock()
	srcAC, dstAC := me.asyncCd(int(src.rank)), me.asyncCd(int(dst.rank))
	if srcAC == nil && dstAC == nil {
		moveBytes(me, src, dst, bytes)
		settle(struct{}{}, completion)
		return f
	}
	// Wire path: stage through a private buffer, chaining the put off
	// the get's completion so neither leg blocks the initiator.
	tmp := make([]byte, bytes)
	onBad := func(err error) {
		fail(err, maxTime(completion, me.Clock()))
		me.aggPreBlock()
	}
	finishPut := func() {
		if dstAC != nil {
			me.startAsync(cfg.retry,
				func(timeout time.Duration, done func(error)) error {
					return dstAC.PutAsync(int(dst.rank), dst.Offset(), tmp, timeout, done)
				},
				func() {
					settle(struct{}{}, maxTime(completion, me.Clock()))
					me.aggPreBlock() // cut-through, as in ReadAsync
				}, onBad)
			return
		}
		me.mustCd(me.cd.Put(int(dst.rank), dst.Offset(), tmp))
		settle(struct{}{}, maxTime(completion, me.Clock()))
	}
	if srcAC != nil {
		me.startAsync(cfg.retry,
			func(timeout time.Duration, done func(error)) error {
				return srcAC.GetAsync(int(src.rank), src.Offset(), tmp, timeout, done)
			},
			finishPut, onBad)
		return f
	}
	me.mustCd(me.cd.Get(int(src.rank), src.Offset(), tmp))
	finishPut()
	return f
}

// maxTime keeps completion timestamps monotone.
func maxTime(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
