package core

import (
	"fmt"

	"upcxx/internal/agg"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/pad"
	"upcxx/internal/rpc"
)

// Registered-function remote invocation: the wire-capable form of the
// paper's §III-G async vocabulary. A Go closure cannot cross an address
// space, so multi-process jobs ship a *registered* function instead —
// a name registered once per process (RegisterTask) resolving to a
// dense wire index, invoked with POD-encoded arguments (AsyncTask /
// AsyncTaskFuture). On the in-process backend the same calls take the
// direct path through the engine, closures and all, so one program
// runs unmodified on both conduits; on the wire backend requests,
// replies and completion acks all ride the aggregation batch plane, so
// fine-grained task storms coalesce like any other small operation.
//
// Completion semantics (both backends):
//
//   - A Signal event fires when the task's *body* has run (on the wire:
//     when the executor's reply arrives). An AsyncTaskFuture resolves
//     with the body's return bytes at the same point.
//   - A surrounding Finish waits for the task's whole *subtree*: tasks
//     the body spawned (transitively — an RPC may spawn RPCs), and the
//     aggregated operations it issued. The executor runs each task
//     under an implicit scope and sends its done-ack only when that
//     scope drains; acks cascade up the spawn tree, so the count at
//     the root can never hit zero while a descendant is in flight.
//   - Task bodies run inside the target's progress dispatch and must
//     not block (no Barrier, no Wait, no blocking reads): like an
//     active-message handler, a body performs local work and issues
//     asynchronous operations — further AsyncTasks, Agg* ops — which
//     the runtime tracks and flushes.

// Aggregated-AM handler ids below reservedAMLimit belong to the
// runtime; RegisterAMHandler rejects them.
const (
	amRPCReq  uint16 = 0x01 // registered-task request (rpc.AppendRequest)
	amRPCRep  uint16 = 0x02 // body-completion reply (rpc.AppendReply)
	amRPCDone uint16 = 0x03 // counted subtree-quiesced ack (rpc.AppendDone)

	reservedAMLimit uint16 = 0x10
)

// sysAMs is the dispatch table of the reserved ids: dense and fixed,
// so the three protocol messages of every RPC skip the per-rank
// handler map (rankApplier.AM). Each takes a whole run and returns how
// many of its messages ran, with an error for the first message no
// correct peer sends, which the conduit answers by severing the sender.
// A run's header is the part of the message its sender keys runs by:
// a request's whole rpc header (task, flags, call and done ids), with
// the arguments as bodies; a reply's call id, with the return bytes as
// its body; no header for done-acks, each a body of its own.
var sysAMs = [reservedAMLimit]func(r *Rank, from int, run agg.Run) (int, error){
	amRPCReq:  (*Rank).rpcRequest,
	amRPCRep:  (*Rank).rpcReply,
	amRPCDone: (*Rank).rpcDone,
}

// TaskBody is a registered task's implementation: it runs on the
// target rank's goroutine with the target's handle, the calling rank,
// and the POD-encoded arguments (valid only for the duration of the
// call). The returned bytes travel back when the caller asked for a
// reply (AsyncTaskFuture, or AsyncTask with a Signal event); bodies
// may return nil otherwise. Bodies must not block.
type TaskBody = rpc.Fn[*Rank]

// Task is the portable handle of a registered function; see
// RegisterTask.
type Task = rpc.Task

// taskRegistry is process-global, like a GASNet handler table: every
// process of a wire job registers the same tasks in the same order
// (package init time is the natural place), so indices agree across
// address spaces. In-process jobs share it trivially.
var taskRegistry = rpc.NewRegistry[*Rank]()

// RegisterTask registers fn under a unique name and returns the handle
// AsyncTask / AsyncTaskFuture launch it by. Register once per process,
// before the job starts — typically from a package init or a
// package-level var — and in the same order everywhere; duplicate
// names panic.
func RegisterTask(name string, fn TaskBody) Task {
	return taskRegistry.Register(name, fn)
}

// pendingCall is one outstanding reply on the calling rank: a future
// awaiting the body's return bytes, a completion object awaiting body
// completion, or both. target is the executor rank, so a death sweep
// can fail exactly the calls the corpse owed. A retried call (launched
// under a RetryPolicy) carries its finish scope here instead of a
// done-ack id — the credit rides the reply, see wireTaskRetry. sent
// counts the attempts shipped, each of which may be answered.
type pendingCall struct {
	fut    *Future[[]byte]
	done   Completer
	target int
	fs     *finishScope
	sent   int
	// t0 is the obs-clock issue time, captured only while tracing is
	// on; the reply observes the round trip into the rtt histogram.
	t0 uint64
}

// voidCall is a retired call id's entry in voidCalls: its executor and
// how many of its attempts may still be answered.
type voidCall struct{ target, left int }

// rpcRequest executes one run of incoming registered-task requests: the
// header they share is parsed and its task resolved once, then each
// body runs as one task's arguments. It runs on this rank's SPMD
// goroutine, inside batch application. The protocol's own messages go
// straight to the aggregator, with no finish/event registration: the
// task protocol does its own accounting.
func (r *Rank) rpcRequest(from int, run agg.Run) (int, error) {
	idx, flags, callID, doneID, rest, err := rpc.ParseRequest(run.Hdr)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes past the request header", len(rest))
	}
	var fn TaskBody
	if err == nil {
		if fn = taskRegistry.Fn(idx); fn == nil {
			_, _, err = taskRegistry.Resolve(idx)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("corrupt task request: %w", err)
	}
	var onBody func([]byte, float64)
	if flags&rpc.FlagReply != 0 {
		onBody = func(reply []byte, _ float64) {
			var h [rpc.RepHeaderBytes]byte
			r.agg.SendParts(from, amRPCRep, rpc.AppendReply(h[:0], callID, nil), reply, nil)
		}
	}
	n := run.Len()
	for run.Len() > 0 {
		r.ep.Stats.Tasks++
		r.execTask(from, idx, fn, run.Next(), onBody, nil, doneID)
	}
	return n, nil
}

// rpcReply resolves the pending call its run's header names with each
// body, the body's return bytes: one reply per run, since call ids are
// distinct, unless a retried call was answered more than once.
func (r *Rank) rpcReply(from int, run agg.Run) (int, error) {
	callID, rest, err := rpc.DecodeReply(run.Hdr)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes past the reply header", len(rest))
	}
	if err != nil {
		return 0, fmt.Errorf("corrupt task reply: %w", err)
	}
	n := run.Len()
	for i := 0; i < n; i++ {
		if err := r.resolveCall(from, callID, run.Next()); err != nil {
			return i, err
		}
	}
	return n, nil
}

// resolveCall resolves one pending call with the body's return bytes.
func (r *Rank) resolveCall(from int, callID uint64, data []byte) error {
	pc := r.calls[callID]
	if pc == nil {
		// A reply for a call that was already retired: a duplicate from
		// a retried request whose earlier attempt also got through, a
		// straggler for a call the failure path already failed, or one
		// a dead executor sent before it died. Expected under retries —
		// drop it. Any other unknown id is corruption.
		if v, void := r.voidCalls[callID]; void {
			if v.left--; v.left == 0 {
				delete(r.voidCalls, callID)
			} else {
				r.voidCalls[callID] = v
			}
			return nil
		}
		if r.rankDead(from) {
			return nil
		}
		return fmt.Errorf("task reply for unknown call %d", callID)
	}
	delete(r.calls, callID)
	if pc.t0 != 0 {
		r.rpcRTT.Observe(int64(obs.NowNs() - pc.t0))
	}
	t := r.Clock()
	// Further attempts may still be in flight; their replies must be
	// dropped, not panicked on.
	r.voidCall(callID, pc, 1)
	if pc.fut != nil {
		// The payload aliases the batch buffer; the future outlives it.
		// Resolution fires attached continuations here, inside batch
		// application on the owner's goroutine.
		pc.fut.resolve(append([]byte(nil), data...), t, r)
	}
	if pc.done != nil {
		pc.done.compComplete(t, r)
	}
	if pc.fs != nil {
		// Retried calls carry no done-ack id; the finish credit rides
		// the (first) reply instead.
		pc.fs.childDone(t, r)
	}
	return nil
}

// voidCall retires callID, `answered` of whose pc.sent attempts have
// been answered: while the rest may still reply from a live executor,
// the id stays in voidCalls so their replies are dropped, and the last
// of them deletes it (markRankDead drops a dead executor's ids).
func (r *Rank) voidCall(callID uint64, pc *pendingCall, answered int) {
	if pc.sent <= answered || r.rankDead(pc.target) {
		return
	}
	if r.voidCalls == nil {
		r.voidCalls = make(map[uint64]voidCall)
	}
	r.voidCalls[callID] = voidCall{target: pc.target, left: pc.sent - answered}
}

// failCall retires one pending call with a failure: the future fails
// typed, the completion object completes (events observe completion,
// not success), and a retried call's finish credit is restored. Late
// replies for the id are dropped thereafter. No-op if the call already
// completed.
func (r *Rank) failCall(callID uint64, err error) {
	pc := r.calls[callID]
	if pc == nil {
		return
	}
	delete(r.calls, callID)
	r.voidCall(callID, pc, 0)
	t := r.Clock()
	if pc.fut != nil {
		pc.fut.fail(err, t, r)
	}
	if pc.done != nil {
		pc.done.compComplete(t, r)
	}
	if pc.fs != nil {
		pc.fs.childDone(t, r)
	}
}

// rpcDone credits each counted ack of its run, which has no header, to
// the scope it belongs to.
func (r *Rank) rpcDone(from int, run agg.Run) (int, error) {
	if len(run.Hdr) != 0 {
		return 0, fmt.Errorf("done-ack run with a %d-byte header", len(run.Hdr))
	}
	n := run.Len()
	for i := 0; i < n; i++ {
		if err := r.creditDone(from, run.Next()); err != nil {
			return i, err
		}
	}
	return n, nil
}

// creditDone credits one counted ack — count quiesced task subtrees —
// to the scope it belongs to.
func (r *Rank) creditDone(from int, payload []byte) error {
	id, count, err := rpc.DecodeDone(payload)
	if err != nil {
		return fmt.Errorf("corrupt done-ack: %w", err)
	}
	fs := r.doneTab[id]
	if fs == nil {
		return fmt.Errorf("done-ack for unknown scope %d", id)
	}
	n := int(count)
	if held := fs.outstanding.Load(); int64(n) > held {
		return fmt.Errorf("done-ack credits %d tasks to scope %d, which holds %d", n, id, held)
	}
	if r.rcd != nil {
		// The acks arrived, so the sender no longer owes them: release
		// the credits the death sweep would otherwise restore.
		if m := r.remoteSlots[from]; m != nil {
			if m[fs] > n {
				m[fs] -= n
			} else {
				delete(m, fs)
			}
		}
	}
	fs.childDoneN(n, r.Clock(), r)
	return nil
}

// doneIDFor lazily assigns fs an id in this rank's done-ack table, the
// key remote executors complete it by. Wire path only; called on the
// owning rank's goroutine.
func (r *Rank) doneIDFor(fs *finishScope) uint64 {
	if fs.doneID == 0 {
		r.nextDone++
		fs.doneID = r.nextDone
		if r.doneTab == nil {
			r.doneTab = make(map[uint64]*finishScope)
		}
		r.doneTab[fs.doneID] = fs
	}
	return fs.doneID
}

// doneDrop retires a completed scope's done-ack id, if it ever had one.
func (r *Rank) doneDrop(fs *finishScope) {
	if fs.doneID != 0 {
		delete(r.doneTab, fs.doneID)
		fs.doneID = 0
	}
}

// taskScope returns the implicit scope of a task executing here, taken
// from this rank's free list the first time its body asks for a scope
// (currentFinish): the body holds the first slot, and the completion
// target is parent (engine launches) or rank caller's scope ackID (wire
// requests). An empty list refills from one pad.Slice slab, so a task
// scope shares cache lines only with other scopes of this rank.
func (r *Rank) taskScope(caller int, parent *finishScope, ackID uint64) *finishScope {
	if len(r.scopeFree) == 0 {
		slab := pad.Slice[finishScope](scopeSlab)
		for i := range slab {
			slab[i].owner, slab[i].task = r, true
			r.scopeFree = append(r.scopeFree, &slab[i])
		}
	}
	n := len(r.scopeFree) - 1
	fs := r.scopeFree[n]
	r.scopeFree = r.scopeFree[:n]
	fs.parent, fs.caller, fs.ackID = parent, caller, ackID
	fs.outstanding.Store(1)
	r.scopesTaken.Add(1)
	return fs
}

// taskQuiesced reports a drained task scope to its completion target.
// It runs on the goroutine of sig, the rank that delivered the last
// completion; the scope returns to the free list only when that is the
// owner's own goroutine (always, on the wire).
func (r *Rank) taskQuiesced(fs *finishScope, t float64, sig *Rank) {
	r.doneDrop(fs)
	parent, caller, ackID := fs.parent, fs.caller, fs.ackID
	if sig == r {
		fs.parent = nil
		r.scopeFree = append(r.scopeFree, fs)
	}
	if parent != nil {
		parent.childDone(t, sig)
	} else if ackID != 0 {
		r.oweDone(caller, ackID)
	}
}

// oweDone records one done-ack owed to rank caller's scope id. While a
// batch is being applied, acks to the same scope accumulate into one
// counted message (flushDone ships it when the application ends, or
// when the next ack is for a different scope); outside batch
// application — a scope drained by an aggregated op's acknowledgement,
// or during a wait a task body entered (waitProgress clears applying) —
// the ack ships at once, because the rank may block next and the
// caller's Finish is waiting on it.
func (r *Rank) oweDone(caller int, id uint64) {
	if r.ackN > 0 && (r.ackTo != caller || r.ackID != id) {
		r.flushDone()
	}
	r.ackTo, r.ackID = caller, id
	r.ackN++
	if !r.applying {
		r.flushDone()
	}
}

// flushDone ships the accumulated counted done-ack, if any. The batch
// plane's reply hook calls it at the end of every batch application, so
// an ack owed to the batch's sender rides the batch's acknowledgement;
// aggPreBlock calls it on every path into a blocking wait and after
// every acknowledgement — so a held ack can never outlive the batch
// application that produced it, nor sit through a wait nested in it.
func (r *Rank) flushDone() {
	if r.ackN == 0 {
		return
	}
	var h [rpc.DoneBytes]byte
	msg := rpc.AppendDone(h[:0], r.ackID, r.ackN)
	r.ackN = 0
	r.agg.Send(r.ackTo, amRPCDone, msg, nil)
}

// execTask runs fn, the body of the task registered at index idx, on
// this rank's goroutine: fire onBody when the body returns, and report to
// parent or (from, ackID) when the whole subtree has quiesced. The task
// enters the finish stack as an entry holding only that target; a body
// that issues tracked work (a launch, a remote aggregated op, a future)
// turns it into a scope of its own on first use (currentFinish), which
// defers the report until the scope drains. A leaf body never does, and
// reports as soon as it returns. A panicking body tears the job down
// wrapped with the task's name and route (taskPanic, deferred by
// whoever runs the task), following the failed-process-aborts-the-job
// model.
func (r *Rank) execTask(from int, idx uint16, fn TaskBody, args []byte,
	onBody func(reply []byte, t float64), parent *finishScope, ackID uint64) {
	// Filled field by field: a composite literal is built on the stack
	// and copied in 16 bytes at a time, a store-forwarding stall per task.
	r.finish = append(r.finish, finishEntry{})
	e := &r.finish[len(r.finish)-1]
	e.parent, e.ackID, e.caller, e.task = parent, ackID, int32(from), idx+1
	r.ring.Begin(obs.KRPCExec, int32(from), uint32(len(args)))
	reply := fn(r, from, args)
	r.ring.End(obs.KRPCExec)
	n := len(r.finish) - 1
	fs := r.finish[n].fs
	r.finish = r.finish[:n]
	if onBody != nil {
		onBody(reply, r.Clock())
	}
	switch {
	case fs != nil:
		fs.childDone(r.Clock(), r) // release the body's slot; reports when the subtree is dry
	case parent != nil: // a leaf reports as taskQuiesced would have
		parent.childDone(r.Clock(), r)
	case ackID != 0:
		r.oweDone(from, ackID)
	}
}

// taskPanic is deferred around code that runs task bodies — a batch
// application, an engine delivery — with depth the finish stack's
// height on entry, where a normal return leaves it. A panic raised
// while a task entry sits above depth is re-raised wrapped with the
// innermost such task's name and route; any other panic passes through
// untouched.
func (r *Rank) taskPanic(depth int) {
	if len(r.finish) == depth {
		return
	}
	for i := len(r.finish) - 1; i >= depth; i-- {
		if e := r.finish[i]; e.task != 0 {
			p := recover()
			if p == nil {
				return // runtime.Goexit unwinding, not a panic
			}
			r.finish = r.finish[:depth]
			_, name, _ := taskRegistry.Resolve(e.task - 1)
			panic(fmt.Errorf("upcxx: task %q from rank %d panicked on rank %d: %v",
				name, e.caller, r.id, p))
		}
	}
}

// mustTask validates a launch handle.
func mustTask(t Task) uint16 {
	if !t.Valid() {
		panic("upcxx: AsyncTask with the zero Task (register the function with RegisterTask first)")
	}
	return t.Index()
}

// wireTask ships one registered-task request over the aggregation
// plane. done and fut attach to the executor's reply; fs receives the
// done-ack when the task's subtree quiesces.
func (r *Rank) wireTask(target int, idx uint16, args []byte,
	done Completer, fut *Future[[]byte], fs *finishScope) {
	if r.agg == nil {
		panic(fmt.Errorf("upcxx: rank %d: conduit has no batch plane for task requests: %w",
			r.id, gasnet.ErrNotWireCapable))
	}
	r.ring.Instant(obs.KRPCDispatch, int32(target), uint32(len(args)), uint64(idx))
	var flags byte
	var callID uint64
	if done != nil || fut != nil {
		flags |= rpc.FlagReply
		r.nextCall++
		callID = r.nextCall
		if r.calls == nil {
			r.calls = make(map[uint64]*pendingCall)
		}
		pc := &pendingCall{fut: fut, done: done, target: target, sent: 1}
		if r.ring != nil {
			pc.t0 = obs.NowNs()
		}
		r.calls[callID] = pc
	}
	var doneID uint64
	if fs != nil {
		doneID = r.doneIDFor(fs)
		if r.rcd != nil {
			// Record the done-ack debt so the target's death can repay
			// it (markRankDead's sweep) instead of hanging the Finish.
			if r.remoteSlots == nil {
				r.remoteSlots = make(map[int]map[*finishScope]int)
			}
			m := r.remoteSlots[target]
			if m == nil {
				m = make(map[*finishScope]int)
				r.remoteSlots[target] = m
			}
			m[fs]++
		}
	}
	r.ep.Stats.AMs++
	// A request without a reply has callID 0, so its header is a
	// function of the run key (task, doneID): when the run last opened
	// for target under that key is still open, args join it without a
	// header built or compared. Otherwise the header is built on the
	// stack; either way args are copied exactly once, into the
	// destination's open batch.
	run := &r.taskRuns[target]
	if flags == 0 && run.task == idx && run.doneID == doneID && r.agg.Extend(target, run.tok, args) {
		return
	}
	var h [rpc.ReqHeaderBytes]byte
	r.agg.SendParts(target, amRPCReq, rpc.AppendRequest(h[:0], idx, flags, callID, doneID, nil), args, nil)
	if flags == 0 {
		run.tok, run.task, run.doneID = r.agg.OpenRun(target), idx, doneID
	}
}

// taskRun is the key of the last request run wireTask opened toward one
// destination, and the aggregator's name for that run (agg.OpenRun;
// stale once the run has closed).
type taskRun struct {
	tok    uint64
	doneID uint64
	task   uint16
}

// wireTaskRetry ships a registered-task request under a RetryPolicy.
// The call always requests a reply (the reply is the per-attempt
// liveness signal), carries no done-ack id — a re-executed body must
// not double-credit the Finish, so the scope's single credit rides the
// first reply (or the failure) via pendingCall.fs — and re-sends the
// SAME call id on each attempt: the executor's body may therefore run
// more than once (at-least-once semantics; see AsyncTaskFuture).
func (r *Rank) wireTaskRetry(target int, idx uint16, args []byte,
	done Completer, fut *Future[[]byte], fs *finishScope, pol RetryPolicy) {
	if r.agg == nil {
		panic(fmt.Errorf("upcxx: rank %d: conduit has no batch plane for task requests: %w",
			r.id, gasnet.ErrNotWireCapable))
	}
	r.ring.Instant(obs.KRPCDispatch, int32(target), uint32(len(args)), uint64(idx))
	r.nextCall++
	callID := r.nextCall
	if r.calls == nil {
		r.calls = make(map[uint64]*pendingCall)
	}
	pc := &pendingCall{fut: fut, done: done, target: target, fs: fs}
	if r.ring != nil {
		pc.t0 = obs.NowNs()
	}
	r.calls[callID] = pc
	payload := rpc.AppendRequest(nil, idx, rpc.FlagReply, callID, 0, args) // kept: every attempt re-sends it
	r.sendCallAttempt(callID, target, payload, pol, 1)
}

// sendCallAttempt issues attempt n of a retried call and, when the
// policy carries a per-attempt deadline, arms the timer that either
// re-sends or fails the call if the reply has not landed by then.
func (r *Rank) sendCallAttempt(callID uint64, target int, payload []byte, pol RetryPolicy, attempt int) {
	pc := r.calls[callID]
	if pc == nil {
		return // completed (or failed) while the retry timer was pending
	}
	if !r.RankAlive(target) {
		r.failCall(callID, r.deadErrFor(target))
		return
	}
	pc.sent++
	r.ep.Stats.AMs++
	r.agg.SendParts(target, amRPCReq, payload[:rpc.ReqHeaderBytes], payload[rpc.ReqHeaderBytes:], nil)
	// Ship now: the attempt deadline measures the network round trip,
	// not this rank's next age-flush.
	r.agg.FlushAll()
	if pol.AttemptTimeout <= 0 || r.rcd == nil {
		return // no deadline — only target death can fail the call
	}
	r.rcd.After(pol.AttemptTimeout, func() {
		if r.calls[callID] == nil {
			return
		}
		timeout := &gasnet.TimeoutError{Rank: target, After: pol.AttemptTimeout}
		if attempt >= pol.MaxAttempts || !pol.retryable(timeout) {
			r.failCall(callID, timeout)
			return
		}
		r.sendCallAttempt(callID, target, payload, pol, attempt+1)
	})
}

// AsyncTask launches the registered task on every rank of place with
// the given POD-encoded arguments — the wire-capable form of the
// paper's async(place)(function, args...). args are read only during
// the call: the caller may reuse the buffer as soon as AsyncTask
// returns. The launch is non-blocking; completion is observed through a
// surrounding Finish (which waits for the task's whole subtree), a
// Signal event (which fires when the body has run), or AsyncTaskFuture.
// The After and TaskFlops options work as with Async.
func AsyncTask(me *Rank, place Place, t Task, args []byte, opts ...AsyncOpt) {
	idx := mustTask(t)
	cfg := asyncCfg{payload: taskWireBytes(len(args))}
	if len(opts) > 0 {
		cfg = applyOpts(cfg, opts)
	}
	fs := me.registerLaunch(cfg.done, len(place.ranks))
	me.launchTasks(place.ranks, idx, args, &cfg, nil, fs)
}

// AsyncTaskFuture launches the registered task on the target rank and
// returns a future resolving with the body's return bytes — the wire-
// capable future<T> f = async(place)(function, args...). Decode the
// reply with the same codec the task encodes it with (rpc.U64 and
// friends for word payloads). The After, Signal and TaskFlops options
// work as with AsyncTask; with After, the future resolves only after
// the dependency has fired and the deferred task has replied.
//
// With WithRetry (resilient wire jobs), a silent attempt — no reply
// within the policy's AttemptTimeout — re-sends the request, and the
// future fails typed (ErrTimeout / ErrRankDead) when the policy is
// exhausted or the target dies. A re-sent request may execute the body
// again if the first request was merely slow, so retried task launches
// have at-least-once semantics: bodies should be idempotent, or the
// caller must tolerate duplicate execution. A surrounding Finish waits
// for the (first) reply of a retried call, not the executor's subtree.
func AsyncTaskFuture(me *Rank, target int, t Task, args []byte, opts ...AsyncOpt) *Future[[]byte] {
	idx := mustTask(t)
	cfg := asyncCfg{payload: taskWireBytes(len(args))}
	if len(opts) > 0 {
		cfg = applyOpts(cfg, opts)
	}
	f := newFuture[[]byte](me)
	fs := me.registerLaunch(cfg.done, 1)
	me.launchTasks([]int{target}, idx, args, &cfg, f, fs)
	return f
}

// launchTasks launches one task per target, now or — under an After
// dependency — when the event fires; only the deferred form needs args
// and the config to outlive the call, so only it copies them. cfg stays
// on the caller's stack and is read field by field: a remote target of
// a wire job needs nothing from it but done and retry, and no modeled
// arrival time at all.
func (r *Rank) launchTasks(targets []int, idx uint16, args []byte, cfg *asyncCfg,
	fut *Future[[]byte], fs *finishScope) {
	if cfg.after == nil {
		for _, t := range targets {
			if !r.wireLaunch(t, idx, args, cfg, fut, fs) {
				r.engineTask(r, t, r.amSendArrival(t, cfg.payload), idx, args, cfg, fut, fs)
			}
		}
		return
	}
	held, c := append([]byte(nil), args...), *cfg
	r.fanOut(Place{ranks: targets}, c, func(from *Rank, t int, arrival float64) {
		if !r.wireLaunch(t, idx, held, &c, fut, fs) {
			r.engineTask(from, t, arrival, idx, held, &c, fut, fs)
		}
	})
}

// wireLaunch ships the launch as a request on the aggregation plane
// (args are copied into the batch) when target lives in another address
// space — the job holds no handle for it — and reports whether it did.
// A target with a handle (every rank in-process, a wire rank itself) is
// engineTask's.
func (r *Rank) wireLaunch(target int, idx uint16, args []byte, cfg *asyncCfg,
	fut *Future[[]byte], fs *finishScope) bool {
	if r.job.ranks[target] != nil {
		return false
	}
	if fut != nil && cfg.retry != nil {
		r.wireTaskRetry(target, idx, args, cfg.done, fut, fs, cfg.retry.withDefaults())
	} else {
		r.wireTask(target, idx, args, cfg.done, fut, fs)
	}
	return true
}

// engineTask injects one launch through the engine: an active message
// whose handler dispatches the body with modeled dispatch/compute
// costs, replies to fut, completes cfg.done when the body has run and
// credits the subtree straight to fs.
func (r *Rank) engineTask(from *Rank, target int, arrival float64, idx uint16, args []byte,
	cfg *asyncCfg, fut *Future[[]byte], fs *finishScope) {
	job, flops, done := r.job, cfg.flops, cfg.done
	fn, _, err := taskRegistry.Resolve(idx)
	if err != nil {
		panic(fmt.Errorf("upcxx: rank %d: task launch to rank %d: %w", r.id, target, err))
	}
	// The engine queues the launch, so it gets a copy — under a name of
	// its own: were the parameter reassigned and captured, escape
	// analysis would move every caller's args buffer to the heap, the
	// wire path's included.
	held := append([]byte(nil), args...)
	from.ring.Instant(obs.KTaskDispatch, int32(target), uint32(len(args)), uint64(idx))
	from.ep.SendAt(target, arrival, cfg.payload, func(tep *gasnet.Endpoint) {
		tgt := job.ranks[tep.Rank]
		defer tgt.taskPanic(len(tgt.finish))
		tep.Clock.Advance(job.model.TaskDispatchCost())
		if flops > 0 {
			tgt.Work(flops)
		}
		tgt.execTask(r.id, idx, fn, held, func(reply []byte, t float64) {
			if fut != nil {
				repArrival := job.model.Arrival(t, tgt.id, r.id, len(reply))
				tgt.ep.SendAt(r.id, repArrival, len(reply), func(rep *gasnet.Endpoint) {
					fut.resolve(reply, rep.Clock.Now(), r)
				})
			}
			if done != nil {
				done.compComplete(t, tgt)
			}
		}, fs, 0)
	})
}

// amSendArrival charges this rank the send occupancy of one active
// message of the given payload and returns its modeled arrival at to.
func (r *Rank) amSendArrival(to, payload int) float64 {
	cost, arrival := r.job.model.AMSend(r.Clock(), r.id, to, payload)
	r.ep.Clock.Advance(cost)
	return arrival
}

// fanOut performs the launch across place's ranks, immediately or
// deferred behind cfg.after — the shared dependency machinery of
// Async and AsyncTask.
func (r *Rank) fanOut(place Place, cfg asyncCfg, launchOne func(from *Rank, target int, arrival float64)) {
	job := r.job
	if cfg.after == nil {
		for _, t := range place.ranks {
			launchOne(r, t, r.amSendArrival(t, cfg.payload))
		}
		return
	}
	// async_after: launch when the dependency event fires. The launch
	// executes on whichever rank's goroutine delivers the final signal
	// and injects from that rank's endpoint, with arrivals modeled from
	// the fire time.
	targets := place.ranks
	cfg.after.whenFired(r, func(fireTime float64, from *Rank) {
		for _, t := range targets {
			arrival := job.model.Arrival(fireTime, from.id, t, cfg.payload)
			launchOne(from, t, arrival)
		}
	})
}

// taskWireBytes is the modeled message size of a task request: the
// protocol header plus the encoded arguments (override with Payload).
func taskWireBytes(argLen int) int {
	return rpc.ReqHeaderBytes + argLen
}
