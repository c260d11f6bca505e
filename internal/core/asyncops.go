package core

import (
	"fmt"
	"time"
)

// Futures-first one-sided operations: the non-blocking counterparts of
// Read/Write/Copy/ReadSlice returning a chainable *Future instead of
// taking an *Event. They charge the same model costs as the Event
// paths (NB initiation now, transfer completion at the modeled finish
// time) and register with the enclosing Finish, so a Finish over a
// chain of ReadAsync→Then links waits for all of it.
//
// Every one of them is one conduit GetAsync or PutAsync (xferAsync),
// whatever the backend: on the wire the request frames leave now and
// the future resolves from progress dispatch when the last reply lands
// — genuine communication/computation overlap in wall-clock time, which
// TestFuturesOverlapBeatsBlocking (internal/spmd) holds; in-process, and
// to a co-located rank, the copy completes inside the call and the
// future resolves at once carrying the modeled completion time, so
// Get/continuation timestamps keep the virtual-time overlap accounting
// exact. The Completer-taking AsyncCopy and WriteSliceAsync (copy.go)
// run the same transfer bodies, copyXfer and writeSliceXfer.
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

// xferAsync moves buf between this rank and rank's segment at off — a
// get into buf, or a put of it — under pol, and runs ok or fail exactly
// once with the op's settle time: its modeled completion, or later if
// the wire took longer. Aggregated ops buffered before it ship first.
func (r *Rank) xferAsync(pol *RetryPolicy, get bool, rank int, off uint64, buf []byte,
	completion float64, ok func(t float64), fail func(err error, t float64)) {
	r.aggPreBlock()
	r.startAsync(pol,
		func(timeout time.Duration, done func(error)) error {
			if get {
				return r.cd.GetAsync(rank, off, buf, timeout, done)
			}
			return r.cd.PutAsync(rank, off, buf, timeout, done)
		},
		func() {
			ok(maxTime(completion, r.Clock()))
			// Cut-through: continuations the resolution just ran may
			// have buffered aggregated ops; ship them before the wait
			// loop blocks again (see initAgg's ack cut-through).
			r.aggPreBlock()
		},
		func(err error) {
			fail(err, maxTime(completion, r.Clock()))
			r.aggPreBlock() // cut-through for failure continuations too
		})
}

// nbCharge books one non-blocking get or put of n bytes toward peer —
// the stats, and the NB initiation cost now — and returns its modeled
// completion time.
func (r *Rank) nbCharge(get bool, peer, n int) float64 {
	if get {
		r.ep.Stats.Gets++
		r.ep.Stats.GetBytes += int64(n)
	} else {
		r.ep.Stats.Puts++
		r.ep.Stats.PutBytes += int64(n)
	}
	r.ep.Clock.Advance(r.job.model.NBInitCost())
	return r.job.model.NBDone(r.Clock(), r.id, peer, n)
}

// ReadAsync starts a non-blocking one-sided read of the element at p
// and returns its future — the rvalue use of a shared object without
// the round-trip stall. Chain with Then to consume the value when it
// arrives. Accepts WithRetry.
func ReadAsync[T any](me *Rank, p GlobalPtr[T], opts ...AsyncOpt) *Future[T] {
	cfg := applyOpts(asyncCfg{}, opts)
	me.enter()
	defer me.exit()
	completion := me.nbCharge(true, int(p.rank), int(sizeOf[T]()))
	f, settle, fail := nbFuture[T](me)
	v := new(T)
	me.xferAsync(cfg.retry, true, int(p.rank), p.Offset(), valueBytes(v), completion,
		func(t float64) { settle(*v, t) }, fail)
	return f
}

// WriteAsync starts a non-blocking one-sided write of v to p and
// returns its completion future. Accepts WithRetry.
func WriteAsync[T any](me *Rank, p GlobalPtr[T], v T, opts ...AsyncOpt) *Future[struct{}] {
	cfg := applyOpts(asyncCfg{}, opts)
	me.enter()
	defer me.exit()
	completion := me.nbCharge(false, int(p.rank), int(sizeOf[T]()))
	f, settle, fail := nbFuture[struct{}](me)
	me.xferAsync(cfg.retry, false, int(p.rank), p.Offset(), valueBytes(&v), completion,
		func(t float64) { settle(struct{}{}, t) }, fail)
	return f
}

// ReadSliceAsync starts staging len(dst) elements from shared memory
// at src into dst; the future resolves with dst once every element has
// landed. dst must stay untouched until then. Accepts WithRetry.
func ReadSliceAsync[T any](me *Rank, src GlobalPtr[T], dst []T, opts ...AsyncOpt) *Future[[]T] {
	cfg := applyOpts(asyncCfg{}, opts)
	me.enter()
	defer me.exit()
	bytes := len(dst) * int(sizeOf[T]())
	f, settle, fail := nbFuture[[]T](me)
	if bytes == 0 {
		settle(dst, me.Clock())
		return f
	}
	completion := me.nbCharge(true, int(src.rank), bytes)
	me.xferAsync(cfg.retry, true, int(src.rank), src.Offset(), sliceBytes(dst), completion,
		func(t float64) { settle(dst, t) }, fail)
	return f
}

// WriteSliceFuture starts the non-blocking WriteSlice and returns its
// completion future (the futures-first spelling of WriteSliceAsync).
// src must stay untouched until then. Accepts WithRetry.
func WriteSliceFuture[T any](me *Rank, dst GlobalPtr[T], src []T, opts ...AsyncOpt) *Future[struct{}] {
	cfg := applyOpts(asyncCfg{}, opts)
	me.enter()
	defer me.exit()
	f, settle, fail := nbFuture[struct{}](me)
	writeSliceXfer(me, cfg.retry, dst, src, func(t float64) { settle(struct{}{}, t) }, fail)
	return f
}

// writeSliceXfer is the one transfer body of WriteSliceFuture and
// WriteSliceAsync: it charges the put and runs ok or fail once with
// the settle time.
func writeSliceXfer[T any](me *Rank, pol *RetryPolicy, dst GlobalPtr[T], src []T,
	ok func(t float64), fail func(err error, t float64)) {
	bytes := len(src) * int(sizeOf[T]())
	if bytes == 0 {
		ok(me.Clock())
		return
	}
	completion := me.nbCharge(false, int(dst.rank), bytes)
	me.xferAsync(pol, false, int(dst.rank), dst.Offset(), sliceBytes(src), completion, ok, fail)
}

// CopyAsync starts a non-blocking bulk transfer of count elements from
// src to dst and returns its completion future — the future-returning
// async_copy. Accepts WithRetry; the policy applies to each leg
// independently.
func CopyAsync[T any](me *Rank, src, dst GlobalPtr[T], count int, opts ...AsyncOpt) *Future[struct{}] {
	cfg := applyOpts(asyncCfg{}, opts)
	me.enter()
	defer me.exit()
	f, settle, fail := nbFuture[struct{}](me)
	copyXfer(me, cfg.retry, src, dst, count, func(t float64) { settle(struct{}{}, t) }, fail)
	return f
}

// copyXfer is the one transfer body of CopyAsync and AsyncCopy. The
// bytes stage through a private buffer: the put is issued from the
// get's completion, so on the wire the two legs pipeline through
// progress dispatch and the initiator never stalls. It runs ok or fail
// once with the settle time.
func copyXfer[T any](me *Rank, pol *RetryPolicy, src, dst GlobalPtr[T], count int,
	ok func(t float64), fail func(err error, t float64)) {
	if count < 0 {
		panic(fmt.Sprintf("upcxx: async copy with negative count %d", count))
	}
	if count == 0 {
		ok(me.Clock())
		return
	}
	bytes := count * int(sizeOf[T]())
	peer := int(src.rank)
	if peer == me.id {
		peer = int(dst.rank)
	}
	completion := me.nbCharge(false, peer, bytes)
	tmp := make([]byte, bytes)
	me.xferAsync(pol, true, int(src.rank), src.Offset(), tmp, completion, func(float64) {
		me.xferAsync(pol, false, int(dst.rank), dst.Offset(), tmp, completion, ok, fail)
	}, fail)
}

// maxTime keeps completion timestamps monotone.
func maxTime(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
