package core

import (
	"fmt"
	"runtime"
	"sync"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// The futures-first completion model. The paper exposes three disjoint
// completion mechanisms — blocking calls, Event handles (§III-D), and
// leaf future<T> values (§III-G) — and the original API here inherited
// that split. This file re-founds completion on one composable object,
// the direction the UPC++ lineage itself took after the paper:
//
//   - Future[T] is a chainable completion object. Then / ThenAsync
//     attach continuations that run when the value arrives; WhenAll /
//     WhenAny join and race futures. Continuations execute on the
//     future's owning rank, from that rank's progress dispatch (Poll,
//     Get, Event.Wait, Finish, Barrier — anything that services
//     progress), and must not block.
//   - Promise is the producer half: operations complete *into* a
//     promise (via Onto or by passing it where an *Event was accepted),
//     and Finalize hands back the future of the whole set.
//   - Completer is the unified completion-target seam. *Event,
//     *Promise, Onto(...) sets, and ToFinish() all satisfy it, so every
//     operation that used to take an *Event (AsyncCopy,
//     WriteSliceAsync, AggPut/AggXor64/AggSend, Signal) now accepts any
//     completion object — legacy Event call sites compile and behave
//     unchanged, as the Event shim routes through the same seam.
//
// Finish integration: a continuation attaches to the finish scope that
// is current when Then is called — or, when it is called from inside
// another continuation (progress dispatch, where no Finish body is on
// the stack), to the scope its source future was created under. While
// a continuation runs, that scope is re-pushed, so operations the
// continuation issues (ReadAsync, AggPut, AsyncTask, further Thens)
// register with the same Finish. A Finish surrounding a future chain
// therefore waits for every continuation transitively, including ones
// attached after the source operation already completed: each link
// registers before its predecessor's completion is credited, so the
// scope's count never transiently drains mid-chain.
type Future[T any] struct {
	owner *Rank
	// fs is the finish scope the future was created under; derived
	// futures inherit it so continuations attached from progress
	// dispatch still find their Finish (see thenImpl).
	fs *finishScope

	mu    sync.Mutex
	done  bool
	t     float64 // modeled completion time
	val   T
	err   error // non-nil iff the future settled by failing
	conts []func(v T, err error, t float64, sig *Rank)
}

// newFuture builds an unresolved future owned by me, remembering the
// enclosing finish scope for continuation inheritance.
func newFuture[T any](me *Rank) *Future[T] {
	return &Future[T]{owner: me, fs: me.currentFinish()}
}

// Resolved returns an already-fulfilled future, for seeding chains and
// for producer code whose value is available immediately.
func Resolved[T any](me *Rank, v T) *Future[T] {
	f := newFuture[T](me)
	f.done = true
	f.t = me.Clock()
	f.val = v
	return f
}

// resolve fulfills the future at modeled time t and fires every
// attached continuation. sig is the rank whose goroutine delivers the
// resolution; when that is not the owning rank (an in-process task
// body completing a promise on the target's goroutine, say), the
// resolution is re-shipped as a message so continuations always
// execute on the owner's goroutine and a blocked Get always wakes
// (engine invariant 2). Resolving twice is a runtime bug and panics.
func (f *Future[T]) resolve(v T, t float64, sig *Rank) {
	if sig != nil && sig != f.owner {
		owner := f.owner
		arrival := t + sig.job.model.Lat(sig.id, owner.id)
		sig.ep.SendAt(owner.id, arrival, 0, func(*gasnet.Endpoint) {
			f.resolve(v, arrival, owner)
		})
		return
	}
	f.mu.Lock()
	if f.done {
		if f.err != nil {
			// A success racing a failure (a straggler reply landing after
			// the target was declared dead, say): the failure already
			// settled the future and ran its continuations; drop the
			// value. Two *successful* resolutions are still a bug.
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
		panic("upcxx: future resolved twice")
	}
	f.val = v
	f.t = t
	f.done = true
	conts := f.conts
	f.conts = nil
	f.mu.Unlock()
	f.owner.ring.Instant(obs.KFutResolve, -1, 0, uint64(len(conts)))
	for _, c := range conts {
		c(v, nil, t, sig)
	}
}

// fail settles the future with err at modeled time t: Get panics with
// the typed cause, Then-derived futures fail without running their
// continuation, and WhenAll fails out. First settle wins — a failure
// arriving after a success (or a second failure) is a silent no-op, so
// a retry layer may race a late reply against its own timeout safely.
func (f *Future[T]) fail(err error, t float64, sig *Rank) {
	if sig != nil && sig != f.owner {
		owner := f.owner
		arrival := t + sig.job.model.Lat(sig.id, owner.id)
		sig.ep.SendAt(owner.id, arrival, 0, func(*gasnet.Endpoint) {
			f.fail(err, arrival, owner)
		})
		return
	}
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.err = err
	f.t = t
	f.done = true
	conts := f.conts
	f.conts = nil
	f.mu.Unlock()
	var zero T
	for _, c := range conts {
		c(zero, err, t, sig)
	}
}

// attach runs c when the future resolves — immediately, on the calling
// goroutine, if it already has.
func (f *Future[T]) attach(c func(v T, err error, t float64, sig *Rank)) {
	f.mu.Lock()
	if f.done {
		v, err, t := f.val, f.err, f.t
		f.mu.Unlock()
		c(v, err, t, f.owner)
		return
	}
	f.conts = append(f.conts, c)
	f.mu.Unlock()
}

// Ready reports whether the value has arrived, servicing progress once.
func (f *Future[T]) Ready() bool {
	f.checkOwner("Ready")
	f.owner.Advance()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Get blocks until the value arrives — servicing async tasks and, on a
// wire job, conduit traffic and aggregation flushes meanwhile — and
// returns it, the paper's future.get(). The caller's clock advances to
// the modeled completion time, so overlap between issue and Get is
// what the cost model rewards.
func (f *Future[T]) Get() T {
	f.checkOwner("Get")
	f.owner.waitProgress(func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.done
	})
	f.owner.ep.Clock.AdvanceTo(f.t)
	if f.err != nil {
		panic(fmt.Errorf("upcxx: future failed: %w", f.err))
	}
	return f.val
}

// Wait is Get discarding the value, reading better for Future[struct{}]
// completion futures.
func (f *Future[T]) Wait() { f.Get() }

// Err blocks until the future settles and returns its failure, nil on
// success — the non-panicking observation of a failed future (Get
// panics with the same cause wrapped). Use it when a failure is an
// expected outcome the caller handles, e.g. an operation under a
// RetryPolicy whose target may legitimately die.
func (f *Future[T]) Err() error {
	f.checkOwner("Err")
	f.owner.waitProgress(func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.done
	})
	f.owner.ep.Clock.AdvanceTo(f.t)
	return f.err
}

// checkOwner panics when a future is consumed from a goroutine other
// than its owning rank's. Futures are bound to their owner's progress
// engine: Get/Ready/Then from another rank's goroutine would drive the
// wrong engine — historically this was silently accepted and hung or
// corrupted virtual time. Skipped in Concurrent mode, where the
// application may legally move rank handles across goroutines.
func (f *Future[T]) checkOwner(op string) {
	r := f.owner
	if r.job.cfg.Threads == Concurrent || r.gid == 0 {
		return
	}
	g := goid()
	if g == r.gid {
		return
	}
	caller := "a different goroutine"
	for _, o := range r.job.ranks {
		if o != nil && o.gid == g {
			caller = fmt.Sprintf("rank %d's goroutine", o.id)
			break
		}
	}
	panic(fmt.Sprintf("upcxx: Future.%s on a future owned by rank %d called from %s: "+
		"futures must be consumed on their owning rank (the call would drive the wrong "+
		"rank's progress engine); ship the value explicitly instead", op, r.id, caller))
}

// goid parses the running goroutine's id from its stack header, the
// only portable way to identify a goroutine. It costs a few
// microseconds (runtime.Stack unwinds a frame), which is why only the
// once-per-future consumption points pay for it, not Then.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	s = s[len(prefix):]
	var id uint64
	for i := 0; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		id = id*10 + uint64(s[i]-'0')
	}
	return id
}

// Then attaches a synchronous continuation: when f resolves with v,
// fn(v) runs on the owning rank and the returned future resolves with
// its result. The continuation executes from progress dispatch (or
// inline, if f already resolved) under the finish scope described in
// the package notes; it must not block, but may issue further
// asynchronous operations — chaining ReadAsync inside a Then is the
// intended multi-hop idiom.
//
// Go methods cannot introduce type parameters, so Then is a free
// function: g := core.Then(f, func(v T) U {...}).
func Then[T, U any](f *Future[T], fn func(v T) U) *Future[U] {
	return thenImpl(f, func(_ *Rank, v T) U { return fn(v) }, false)
}

// ThenAsync is Then with the continuation running as a task: it
// receives the owning rank's handle, is charged task-dispatch cost,
// and counts in the task statistics — the future-flavored analog of
// async_after(place, after)(task) for a value dependency.
func ThenAsync[T, U any](f *Future[T], fn func(me *Rank, v T) U) *Future[U] {
	return thenImpl(f, fn, true)
}

// thenImpl carries no goroutine-owner check: Then sits on the hot path
// of chain-per-element loops, and goid() costs microseconds. Misuse
// from another rank's goroutine is caught at the consumption points
// (Get/Ready) and by the race detector.
func thenImpl[T, U any](f *Future[T], fn func(me *Rank, v T) U, task bool) *Future[U] {
	me := f.owner
	out := &Future[U]{owner: me}
	// The continuation belongs to the finish scope current at attach
	// time; from inside another continuation (no Finish body on the
	// stack) it inherits the source future's scope.
	fs := me.currentFinish()
	if fs == nil {
		fs = f.fs
	}
	out.fs = fs
	if fs != nil {
		fs.add(1)
	}
	f.attach(func(v T, err error, t float64, _ *Rank) {
		if err != nil {
			// Failure propagates down the chain without running the
			// continuation; the scope is still credited so a Finish over
			// the chain drains instead of hanging on the dead link.
			done := t
			if now := me.Clock(); now > done {
				done = now
			}
			out.fail(err, done, me)
			if fs != nil {
				fs.childDone(done, me)
			}
			return
		}
		if task {
			me.ep.Stats.Tasks++
			me.ep.Clock.Advance(me.job.model.TaskDispatchCost())
		}
		me.ring.Begin(obs.KFutThen, -1, 0)
		u := runUnder(me, fs, func() U { return fn(me, v) })
		me.ring.End(obs.KFutThen)
		done := t
		if now := me.Clock(); now > done {
			done = now
		}
		out.resolve(u, done, me)
		if fs != nil {
			fs.childDone(done, me)
		}
	})
	return out
}

// runUnder executes body with fs re-pushed as the current finish scope,
// so operations the continuation issues attach to the Finish its chain
// started under (transitive quiescence).
func runUnder[U any](me *Rank, fs *finishScope, body func() U) U {
	if fs == nil {
		return body()
	}
	me.enter()
	me.finish = append(me.finish, fs)
	me.exit()
	defer func() {
		me.enter()
		me.finish = me.finish[:len(me.finish)-1]
		me.exit()
	}()
	return body()
}

// WhenAll returns a future resolving with every input's value, in
// argument order, once the last input resolves (at the latest modeled
// completion time). All inputs must share one owning rank.
func WhenAll[T any](fs ...*Future[T]) *Future[[]T] {
	if len(fs) == 0 {
		panic("upcxx: WhenAll of no futures (owner would be undefined)")
	}
	me := futOwner("WhenAll", fs)
	out := newFuture[[]T](me)
	// The join state needs its own lock: in Concurrent mode one input
	// may resolve inline on the caller while another resolves from a
	// different goroutine driving progress.
	var mu sync.Mutex
	vals := make([]T, len(fs))
	pending := len(fs)
	failed := false
	var maxT float64
	for i, f := range fs {
		i, f := i, f
		f.attach(func(v T, err error, t float64, sig *Rank) {
			if err != nil {
				// First failure fails the join; stragglers (successes or
				// further failures) are dropped silently.
				mu.Lock()
				already := failed
				failed = true
				mu.Unlock()
				if !already {
					out.fail(err, t, sig)
				}
				return
			}
			mu.Lock()
			if failed {
				mu.Unlock()
				return
			}
			vals[i] = v
			if t > maxT {
				maxT = t
			}
			pending--
			drained := pending == 0
			doneT := maxT
			mu.Unlock()
			if drained {
				out.resolve(vals, doneT, sig)
			}
		})
	}
	return out
}

// WhenAny returns a future resolving with the first input to resolve
// (the race combinator). All inputs must share one owning rank; the
// losers still complete normally and still satisfy their Finish.
func WhenAny[T any](fs ...*Future[T]) *Future[T] {
	if len(fs) == 0 {
		panic("upcxx: WhenAny of no futures (owner would be undefined)")
	}
	me := futOwner("WhenAny", fs)
	out := newFuture[T](me)
	var mu sync.Mutex
	won := false
	for _, f := range fs {
		f.attach(func(v T, err error, t float64, sig *Rank) {
			mu.Lock()
			lost := won
			won = true
			mu.Unlock()
			if lost {
				return
			}
			// The first settle wins, failure included: racing a read
			// against a replica that may die must not hang on the corpse.
			if err != nil {
				out.fail(err, t, sig)
				return
			}
			out.resolve(v, t, sig)
		})
	}
	return out
}

// futOwner asserts the inputs share one owner and returns it. The
// goroutine check (a microseconds-scale stack unwind) runs once; the
// per-future pass is a pointer comparison.
func futOwner[T any](op string, fs []*Future[T]) *Rank {
	me := fs[0].owner
	fs[0].checkOwner(op)
	for _, f := range fs {
		if f.owner != me {
			panic(fmt.Sprintf("upcxx: %s over futures owned by rank %d and rank %d: "+
				"combinators join futures of one rank", op, me.id, f.owner.id))
		}
	}
	return me
}

// ---- The unified completion seam ----

// Completer is the completion-target seam every non-blocking operation
// accepts: *Event (the legacy handle, unchanged semantics), *Promise
// (futures-first), an Onto(...) combination, or ToFinish(). A nil
// Completer means "no explicit completion object" and keeps each
// operation's historical default (the implicit handle set for copies,
// barrier visibility for aggregated ops, the enclosing Finish for
// tasks).
type Completer interface {
	// compRegister records n more operations that must complete; me is
	// the issuing rank (finish-attaching completers capture the scope
	// here).
	compRegister(me *Rank, n int)
	// compComplete credits one completion at modeled time t; sig is the
	// rank whose goroutine delivers it.
	compComplete(t float64, sig *Rank)
}

// *Event satisfies Completer, which is what keeps every pre-futures
// call site compiling: AsyncCopy(me, src, dst, n, ev) now routes the
// event through the same seam a promise or Onto set uses.
func (ev *Event) compRegister(_ *Rank, n int) { ev.register(n) }
func (ev *Event) compComplete(t float64, sig *Rank) {
	ev.signal(t, sig)
}

// Promise is the producer half of a future: operations complete into
// it, and Finalize returns the future of the whole set — the paper
// lineage's promise/require pattern. It counts with an Event, whose
// fire resolves the future. A fresh promise holds one anticipated
// completion for its creator, so operations may be added one by one
// (each registering and completing in any order) without the future
// resolving early; Finalize drops the creator's slot and arms
// resolution.
type Promise struct {
	ev  Event
	me  *Rank
	fut *Future[struct{}]
}

// NewPromise creates a promise owned by the calling rank.
func NewPromise(me *Rank) *Promise {
	return &Promise{ev: Event{pending: 1}, me: me, fut: newFuture[struct{}](me)}
}

// Future returns the promise's future (unresolved until Finalize has
// been called and every registered operation has completed). Chains may
// be attached before Finalize.
func (p *Promise) Future() *Future[struct{}] { return p.fut }

// Finalize drops the creator's anticipated completion and returns the
// future; once every operation registered with the promise completes,
// the future resolves. Call exactly once, after the last operation has
// been issued.
func (p *Promise) Finalize() *Future[struct{}] {
	p.compComplete(p.me.Clock(), p.me)
	return p.fut
}

func (p *Promise) compRegister(_ *Rank, n int) {
	if p.ev.register(n) == 0 {
		panic("upcxx: operation completing into an already-finalized, drained Promise")
	}
}

func (p *Promise) compComplete(t float64, sig *Rank) {
	if fired, at := p.ev.signal(t, sig); fired {
		p.fut.resolve(struct{}{}, at, sig)
	}
}

// Completion fans registration and completion out to several
// targets; built by Onto.
type Completion struct {
	targets []Completer
}

func (s *Completion) compRegister(me *Rank, n int) {
	for _, c := range s.targets {
		c.compRegister(me, n)
	}
}

func (s *Completion) compComplete(t float64, sig *Rank) {
	for _, c := range s.targets {
		c.compComplete(t, sig)
	}
}

// applyAsync makes an Onto(...) value usable directly as an AsyncTask /
// Async option: AsyncTask(me, place, task, args, Onto(p)) completes the
// task into p exactly as Signal(ev) completes it into an event.
func (s *Completion) applyAsync(c *asyncCfg) { c.done = chainCompleter(c.done, s) }

// Onto combines completion targets into one completion object: any mix
// of events, promises and ToFinish(). Nil targets are dropped; Onto()
// with nothing left returns nil (no completion object). The returned
// value is accepted everywhere a Completer is, and additionally as an
// Async/AsyncTask option.
func Onto(targets ...Completer) *Completion {
	s := &Completion{}
	for _, t := range targets {
		if t := normCompleter(t); t != nil {
			s.targets = append(s.targets, t)
		}
	}
	if len(s.targets) == 0 {
		return nil
	}
	return s
}

// finishArm attaches completions to the finish scope current at issue
// time. Single-use: one ToFinish() value serves one operation (or one
// batch issued under the same scope).
type finishArm struct {
	fs *finishScope
}

// ToFinish returns a completion target attaching the operation to the
// enclosing Finish, for operations (AsyncCopy, WriteSliceAsync) whose
// historical default is the implicit handle set rather than the scope.
func ToFinish() Completer { return &finishArm{} }

func (a *finishArm) compRegister(me *Rank, n int) {
	if a.fs == nil {
		a.fs = me.currentFinish()
	}
	if a.fs != nil {
		a.fs.add(n)
	}
}

func (a *finishArm) compComplete(t float64, sig *Rank) {
	if a.fs != nil {
		a.fs.childDone(t, sig)
	}
}

// normCompleter collapses typed-nil completers (a nil *Event variable
// passed through the interface parameter) to plain nil, preserving the
// pre-futures nil-event calling convention.
func normCompleter(c Completer) Completer {
	switch v := c.(type) {
	case *Event:
		if v == nil {
			return nil
		}
	case *Promise:
		if v == nil {
			return nil
		}
	case *Completion:
		if v == nil {
			return nil
		}
	case *finishArm:
		if v == nil {
			return nil
		}
	}
	return c
}

// chainCompleter joins two completers (either may be nil).
func chainCompleter(a, b Completer) Completer {
	a, b = normCompleter(a), normCompleter(b)
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &Completion{targets: []Completer{a, b}}
}
