package core

import (
	"sync/atomic"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// Place designates the target(s) of an async: a single rank or a group
// (paper §III-G: "place can be a single thread ID or a group of threads").
type Place struct {
	ranks []int
}

// On returns the place consisting of a single rank.
func On(rank int) Place { return Place{ranks: []int{rank}} }

// OnRanks returns the place consisting of the given ranks.
func OnRanks(ranks ...int) Place {
	rs := make([]int, len(ranks))
	copy(rs, ranks)
	return Place{ranks: rs}
}

// Everywhere returns the place consisting of all ranks of me's job.
func Everywhere(me *Rank) Place {
	rs := make([]int, me.Ranks())
	for i := range rs {
		rs[i] = i
	}
	return Place{ranks: rs}
}

// TaskFn is the body of an async task; it runs on the target rank's
// goroutine with the target's handle. UPC++ ships a function pointer and
// its arguments (no closure capture, §III-G); here the closure travels
// in-process and the declared Payload size is charged to the cost model.
// Closures do not serialize, so this form is in-process-only for remote
// targets; the wire-capable equivalent is a registered task (see
// RegisterTask / AsyncTask in rpc.go).
type TaskFn func(me *Rank)

type asyncCfg struct {
	payload int
	after   *Event
	// done is the launch's completion object: an *Event (via Signal),
	// a *Promise or Onto(...) set, or a chain of them. It completes
	// when the task body has run.
	done  Completer
	flops float64
	// retry is the operation's retry policy (WithRetry); nil = single
	// attempt. Honored by AsyncTaskFuture and the futures-first
	// one-sided ops on resilient wire jobs; ignored elsewhere.
	retry *RetryPolicy
}

// AsyncOpt configures an Async / AsyncTask launch. It is an interface
// (rather than a bare func type) so completion objects built with Onto
// can be passed directly as options alongside Payload/After/TaskFlops.
type AsyncOpt interface {
	applyAsync(*asyncCfg)
}

// asyncOptFn adapts a plain option function to AsyncOpt.
type asyncOptFn func(*asyncCfg)

func (f asyncOptFn) applyAsync(c *asyncCfg) { f(c) }

// Payload declares the modeled size in bytes of the task's serialized
// arguments (default 64).
func Payload(bytes int) AsyncOpt { return asyncOptFn(func(c *asyncCfg) { c.payload = bytes }) }

// After defers the launch until ev fires — the paper's
// async_after(place, after, ...) dependency construct.
func After(ev *Event) AsyncOpt { return asyncOptFn(func(c *asyncCfg) { c.after = ev }) }

// Signal registers the task(s) with ev; ev fires when they (and every
// other registered operation) complete — the paper's
// async(place, event* ack) form. It is the event-flavored spelling of
// the unified completion option: Signal(ev) and Onto(ev) are the same
// thing, and Onto additionally accepts promises and ToFinish().
func Signal(ev *Event) AsyncOpt {
	return asyncOptFn(func(c *asyncCfg) { c.done = chainCompleter(c.done, ev) })
}

// TaskFlops charges the given modeled compute to the target when the task
// runs (in addition to any charges the body itself makes).
func TaskFlops(f float64) AsyncOpt { return asyncOptFn(func(c *asyncCfg) { c.flops = f }) }

// applyOpts folds a launch's options over cfg. Options see the config
// through an interface call, which forces it to the heap, and a 48-byte
// struct returned by value is spilled word by word and re-read 16 bytes
// at a time (a store-forwarding stall on every launch): the task
// launchers therefore build their config in place and come here only
// when there are options, so the option-less launch — the task-storm
// case — pays for neither.
func applyOpts(cfg asyncCfg, opts []AsyncOpt) asyncCfg {
	for _, o := range opts {
		o.applyAsync(&cfg)
	}
	return cfg
}

// registerLaunch books n launches with the enclosing finish scope
// (returned; nil outside any Finish) and with the completion object.
func (r *Rank) registerLaunch(done Completer, n int) *finishScope {
	r.enter()
	fs := r.currentFinish()
	if fs != nil {
		fs.add(n)
	}
	if done != nil {
		done.compRegister(r, n)
	}
	r.exit()
	return fs
}

// Async launches fn asynchronously on every rank of place, the paper's
// async(place)(function, args...). The launch is non-blocking; completion
// is observed through a surrounding Finish, a Signal event, or a returned
// future (AsyncFuture).
func Async(me *Rank, place Place, fn TaskFn, opts ...AsyncOpt) {
	cfg := asyncCfg{payload: 64}
	for _, o := range opts {
		o.applyAsync(&cfg)
	}
	// Asyncs ship Go closures, which do not serialize: on a wire-backed
	// job only self-targeted tasks are allowed.
	for _, t := range place.ranks {
		me.noWire("Async", t)
	}
	fs := me.registerLaunch(cfg.done, len(place.ranks))

	job := me.job
	me.fanOut(place, cfg, func(from *Rank, target int, arrival float64) {
		from.ring.Instant(obs.KTaskDispatch, int32(target), uint32(cfg.payload), 0)
		from.ep.SendAt(target, arrival, cfg.payload, func(tep *gasnet.Endpoint) {
			tgt := job.ranks[tep.Rank]
			tep.Clock.Advance(job.model.TaskDispatchCost())
			if cfg.flops > 0 {
				tgt.Work(cfg.flops)
			}
			tgt.ring.Begin(obs.KTaskExec, int32(from.id), uint32(cfg.payload))
			fn(tgt)
			tgt.ring.End(obs.KTaskExec)
			done := tgt.Clock()
			if cfg.done != nil {
				cfg.done.compComplete(done, tgt)
			}
			if fs != nil {
				fs.childDone(done, tgt)
			}
		})
	})
}

// AsyncAfter is shorthand for Async with an After dependency and an
// optional Signal event, matching the paper's
// async_after(place, after, signal)(task) form.
func AsyncAfter(me *Rank, place Place, after *Event, signal *Event, fn TaskFn, opts ...AsyncOpt) {
	opts = append(opts, After(after))
	if signal != nil {
		opts = append(opts, Signal(signal))
	}
	Async(me, place, fn, opts...)
}

// AsyncFuture launches fn on the target rank and returns a future for its
// result: future<T> f = async(place)(function, args...). The reply travels
// back as a message and its latency is charged when the value is consumed.
// The returned future is chainable — see Then/ThenAsync in future.go.
func AsyncFuture[T any](me *Rank, target int, fn func(me *Rank) T, opts ...AsyncOpt) *Future[T] {
	cfg := asyncCfg{payload: 64}
	for _, o := range opts {
		o.applyAsync(&cfg)
	}
	me.noWire("AsyncFuture", target)
	f := newFuture[T](me)
	fs := me.registerLaunch(cfg.done, 1)
	job := me.job
	repBytes := int(sizeOf[T]())

	me.ep.Send(target, cfg.payload, func(tep *gasnet.Endpoint) {
		tgt := job.ranks[tep.Rank]
		tep.Clock.Advance(job.model.TaskDispatchCost())
		if cfg.flops > 0 {
			tgt.Work(cfg.flops)
		}
		v := fn(tgt)
		done := tgt.Clock()
		repArrival := job.model.Arrival(done, tgt.id, me.id, repBytes)
		tep.SendAt(me.id, repArrival, repBytes, func(rep *gasnet.Endpoint) {
			// The reply executes on the owner's goroutine; resolution
			// fires any attached continuations there.
			f.resolve(v, rep.Clock.Now(), me)
		})
		if cfg.done != nil {
			cfg.done.compComplete(done, tgt)
		}
		if fs != nil {
			fs.childDone(done, tgt)
		}
	})
	return f
}

// finishScope tracks operations launched in the dynamic extent of one
// Finish block (or one remote task body — see execTask in rpc.go): the
// spawn/done accounting behind the paper's X10-style finish. Closure
// asyncs count only tasks spawned directly in the block's dynamic
// scope on the initiating rank (paper §III-G); registered tasks are
// tracked transitively — each remote task that issues tracked work runs
// under an implicit scope of its own (a leaf reports as it returns)
// whose completion cascades up the spawn tree as done-acks, so a Finish
// over AsyncTask launches blocks until every descendant,
// including RPCs spawned by RPCs on other address spaces, and every
// aggregated operation they issued, has quiesced.
type finishScope struct {
	outstanding atomic.Int64
	owner       *Rank

	// task marks a remote task's implicit scope (execTask in rpc.go):
	// when its count drains, the task's subtree has quiesced and the
	// owner reports that to the task's launcher instead of waking a
	// blocked Finish — by crediting parent when the launch came through
	// the engine (same address space), by a done-ack to rank caller
	// under the caller's scope id ackID when it came over the wire.
	// Neither set: nobody waits on the subtree.
	task   bool
	parent *finishScope
	caller int
	ackID  uint64

	// doneID is this scope's key in the owner rank's done-ack table
	// while remote executors hold references to it (0 otherwise); see
	// doneIDFor in rpc.go.
	doneID uint64
}

func (fs *finishScope) add(n int) { fs.outstanding.Add(int64(n)) }

// childDone credits one completed operation; childDoneN credits n. The
// count is the only state touched, and never after the decrement that
// drains it, so completions may arrive from any rank's goroutine and a
// drained task scope may be recycled at once.
func (fs *finishScope) childDone(doneTime float64, child *Rank) { fs.childDoneN(1, doneTime, child) }

func (fs *finishScope) childDoneN(n int, doneTime float64, child *Rank) {
	if fs.outstanding.Add(-int64(n)) != 0 {
		return
	}
	if fs.task {
		fs.owner.taskQuiesced(fs, doneTime, child)
		return
	}
	arrival := child.job.model.Arrival(doneTime, child.id, fs.owner.id, 0)
	child.ep.Wake(fs.owner.id, arrival)
}

func (fs *finishScope) empty() bool { return fs.outstanding.Load() == 0 }

// finishEntry is one level of a rank's finish stack: the scope of a
// Finish block (or of a continuation re-pushed by runUnder), or a task
// executing here (execTask). A task entry starts with no scope — just
// the task and its completion target, parent or (caller, ackID) — and
// gets one from the free list only when its body first asks
// (currentFinish), so a leaf task costs no scope at all.
type finishEntry struct {
	fs     *finishScope
	parent *finishScope
	ackID  uint64
	caller int32
	task   uint16 // 1 + the executing task's registry index; 0 for a Finish scope
}

// currentFinish returns the innermost active finish scope, if any,
// first giving a task entry on top of the stack its scope.
func (r *Rank) currentFinish() *finishScope {
	n := len(r.finish)
	if n == 0 {
		return nil
	}
	e := &r.finish[n-1]
	if e.fs == nil {
		e.fs = r.taskScope(int(e.caller), e.parent, e.ackID)
	}
	return e.fs
}

// Finish runs body and then blocks until every async launched in body's
// dynamic scope has completed — the paper's finish construct,
// implemented there with RAII and here with a higher-order function,
// the idiomatic Go equivalent. Registered tasks (AsyncTask) are waited
// on transitively, across address spaces: the scope drains only when
// every remote descendant's done-ack has cascaded back (see
// finishScope). Closure asyncs count non-transitively, as before.
func Finish(me *Rank, body func()) {
	me.ring.Begin(obs.KFinish, -1, 0)
	fs := &finishScope{owner: me}
	me.finish = append(me.finish, finishEntry{fs: fs})
	body()
	me.finish = me.finish[:len(me.finish)-1]
	me.ring.Instant(obs.KFinishDrain, -1, 0, 0)
	// Aggregated ops issued in the body registered with fs too; the
	// progress wait flushes them and services their acknowledgements
	// (and, on a wire job, incoming requests and done-acks).
	me.waitProgress(fs.empty)
	me.doneDrop(fs)
	me.ring.End(obs.KFinish)
}
