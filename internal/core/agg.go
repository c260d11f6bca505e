package core

import (
	"fmt"

	"upcxx/internal/agg"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// The message-aggregation surface: AggPut, AggXor64 and AggSend buffer
// small remote operations into per-destination batches (internal/agg)
// and ship each batch as one conduit active message, instead of paying
// a frame round trip per op — the software coalescing that makes the
// paper's fine-grained access patterns (GUPS updates, DHT inserts)
// viable over a wire conduit.
//
// The operations are conduit-agnostic. On a backend that implements
// gasnet.BatchConduit (the wire) they coalesce for real; on the
// in-process backend — where a remote access is already a direct
// segment load/store — they execute immediately (puts and xors) or
// ride the engine's active messages (sends), so programs written
// against the Agg* surface run unmodified on both backends and CI can
// compare their checksums.
//
// Completion and ordering:
//
//   - An aggregated op completes when the destination rank has applied
//     it. Pass an *Event to observe completion; ops issued inside a
//     Finish block are also waited on by the Finish. Rank.Barrier
//     drains the aggregation layer before the conduit barrier, so
//     after a barrier every previously issued aggregated op is
//     globally visible.
//   - Ops to the same destination apply in issue order. Blocking
//     direct operations (Read/Write/Copy, AtomicXor, allocation,
//     locks, collectives) flush the aggregation layer before entering
//     the conduit, so aggregated ops issued earlier reach their
//     destinations ahead of the direct operation; beyond that, no
//     order holds across destinations.
//   - Buffered ops ship when a destination batch fills (size/bytes),
//     when it ages past the configured flush age at a progress call
//     (Advance, waits), at AggFlush, or at a barrier.

// AMHandler is a registered-handler active message body: it runs on
// the target rank's SPMD goroutine with the target's handle, the
// sending rank, and the message payload (valid only for the duration
// of the call — copy it to keep it). Handlers must not block, and must
// not wait on communication; they may issue further aggregated ops
// (e.g. a reply AggSend), which the runtime flushes promptly.
type AMHandler func(me *Rank, from int, payload []byte)

// RegisterAMHandler installs fn as rank me's handler for aggregated
// active messages with the given id. Like GASNet handler registration,
// every rank must register the same ids before any rank sends to them
// (SPMD programs register during startup, before the first barrier).
// Registering an id twice on one rank panics, as does registering an
// id below 0x10 — those belong to the runtime's task-RPC protocol
// (see rpc.go).
//
// Aggregated AM handlers require Serialized thread mode (the default):
// handlers execute inside the rank's progress dispatch, and in
// Concurrent mode that dispatch holds the rank's serialization lock —
// a handler issuing its reply through AggSend would re-enter it and
// deadlock. Registration panics up front rather than letting the first
// remote message hang the job.
func RegisterAMHandler(me *Rank, id uint16, fn AMHandler) {
	if id < reservedAMLimit {
		panic(fmt.Sprintf("upcxx: AM handler id %#x is reserved for the runtime (ids below %#x)",
			id, reservedAMLimit))
	}
	if me.job.cfg.Threads == Concurrent {
		panic("upcxx: aggregated AM handlers require Serialized thread mode " +
			"(handlers dispatch under the Concurrent-mode rank lock and could not " +
			"re-enter the runtime to reply)")
	}
	me.enter()
	defer me.exit()
	if me.amHandlers == nil {
		me.amHandlers = make(map[uint16]AMHandler)
	}
	if _, dup := me.amHandlers[id]; dup {
		panic(fmt.Sprintf("upcxx: AM handler %d registered twice on rank %d", id, me.id))
	}
	me.amHandlers[id] = fn
}

// rankApplier executes decoded batch ops against this rank's state:
// puts and xors against the registered segment, AMs against the
// handler table. An op a correct peer never sends is an error.
type rankApplier struct {
	r    *Rank
	from int
}

func (a rankApplier) Put(off uint64, data []byte) error {
	if a.r.seg.Window(off, uint64(len(data))) == nil {
		return fmt.Errorf("put of %d bytes at offset %d is outside the segment", len(data), off)
	}
	a.r.seg.Write(off, data)
	return nil
}

func (a rankApplier) Xor64(off, val uint64) error {
	if off%8 != 0 || a.r.seg.Window(off, 8) == nil {
		return fmt.Errorf("xor at offset %d is unaligned or outside the segment", off)
	}
	a.r.seg.Xor64(off, val)
	return nil
}

func (a rankApplier) AM(id uint16, payload []byte) error {
	if id < reservedAMLimit {
		if h := sysAMs[id]; h != nil {
			return h(a.r, a.from, payload)
		}
	} else if h := a.r.amHandlers[id]; h != nil {
		h(a.r, a.from, payload)
		return nil
	}
	return fmt.Errorf("aggregated AM for unregistered handler %d", id)
}

// initAgg wires the aggregation layer over a batch-capable conduit:
// outgoing batches ship through SendBatch, incoming ones — and the
// replies riding our own batches' acks — decode against this rank's
// segment and AM table; a batch that does not decode or apply is the
// conduit's to reject (it severs the sender). Called from start; the
// in-process backend never reaches here (ProcConduit does not implement
// gasnet.BatchConduit), which is its no-op fast path.
func (r *Rank) initAgg(bc gasnet.BatchConduit, cfg agg.Config) {
	r.aggBC = bc
	r.agg = agg.New(r.Ranks(), cfg, func(dst int, batch []byte, _ int, done func()) {
		r.mustCd(bc.SendBatch(dst, batch, done))
	})
	// After a batch from s is applied, the reply hook folds the done-acks
	// its tasks owe into one counted ack and hands what the handlers
	// buffered for s (a DHT lookup's answer, that done-ack) to ride the
	// batch's ack — GASNet's request/reply — unless an op there awaits a
	// completion, which a never-acked reply cannot deliver.
	//
	// after — aggPreBlock, the cut-through flush — runs once that ack is
	// queued and again after each acknowledgement of ours: buffered ops
	// (for other ranks, or released by the completions an ack delivered)
	// must not wait for this rank's next progress call, because the rank
	// able to consume them may be blocked right now — a Finish, a barrier
	// drain — with no further frame coming our way to trigger an age
	// flush. On the wire they share the ack's writev. O(1) when nothing
	// is buffered.
	bc.SetBatchHandler(func(from int, payload []byte) error {
		r.ring.Begin(obs.KAggApply, int32(from), uint32(len(payload)))
		outer := r.applying
		r.applying = true
		_, err := agg.Apply(payload, rankApplier{r: r, from: from})
		r.applying = outer
		r.ring.End(obs.KAggApply)
		return err
	}, func(to int) []byte {
		r.flushDone()
		return r.agg.TakeReply(to)
	}, r.aggPreBlock)
}

// aggPreBlock ships buffered batches before an operation that blocks
// inside the conduit (a remote read/write/atomic, allocation, lock or
// collective): the request's wait loop services incoming traffic but
// runs no aggregation progress, and the peer able to answer may itself
// be blocked on the ops sitting in our buffers. A pleasant side
// effect: batches flushed here travel the same TCP stream ahead of the
// blocking request's frame, so aggregated ops issued before a direct
// operation to the same destination are applied before it. It is also
// the runtime's one "ship everything" step — the end of a batch
// application, every acknowledgement and the start of every progress
// wait go through it — so a held counted done-ack (flushDone) the
// batch's reply did not take joins the flush here. O(1) when nothing
// is buffered.
func (r *Rank) aggPreBlock() {
	if r.agg != nil {
		r.flushDone()
		r.agg.FlushAll()
	}
}

// aggDefer registers a buffered op with the surrounding Finish scope
// and completion object, returning the completion callback the
// aggregator fires on acknowledgement — nil when there is neither, so
// the op may ride a batch ack as a reply.
func (r *Rank) aggDefer(done Completer) func() {
	fs := r.currentFinish()
	if fs == nil && done == nil {
		return nil
	}
	if fs != nil {
		fs.add(1)
	}
	if done != nil {
		done.compRegister(r, 1)
	}
	return func() {
		t := r.Clock()
		if done != nil {
			done.compComplete(t, r)
		}
		if fs != nil {
			fs.childDone(t, r)
		}
	}
}

// AggPut writes v to the shared object at p through the aggregation
// layer: buffered per destination, applied when the batch ships, and
// complete (visible at the owner) when done completes — an *Event, a
// *Promise, or an Onto(...) set; with nil, by the next barrier. See
// the package notes above for ordering.
func AggPut[T any](me *Rank, p GlobalPtr[T], v T, done Completer) {
	me.enter()
	defer me.exit()
	done = normCompleter(done)
	n := int(sizeOf[T]())
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(n)
	me.ep.Clock.Advance(me.job.model.PutCost(me.id, int(p.rank), n))
	if me.agg == nil || int(p.rank) == me.id {
		me.mustCd(me.cd.Put(int(p.rank), p.Offset(), valueBytes(&v)))
		CompleteNow(done, me)
		return
	}
	me.agg.Put(int(p.rank), p.Offset(), valueBytes(&v), me.aggDefer(done))
}

// AggXor64 xors val into the shared word at p through the aggregation
// layer. Unlike AtomicXor the updated value does not travel back —
// aggregated xors are fire-and-forget updates (the GUPS access
// pattern), which is exactly what lets them coalesce.
func AggXor64(me *Rank, p GlobalPtr[uint64], val uint64, done Completer) {
	me.enter()
	defer me.exit()
	done = normCompleter(done)
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += 8
	me.ep.Clock.Advance(me.job.model.PutCost(me.id, int(p.rank), 8))
	if me.agg == nil || int(p.rank) == me.id {
		_, err := me.cd.Xor64(int(p.rank), p.Offset(), val)
		me.mustCd(err)
		CompleteNow(done, me)
		return
	}
	me.agg.Xor64(int(p.rank), p.Offset(), val, me.aggDefer(done))
}

// AggSend delivers payload to the AM handler registered under id on
// the target rank, through the aggregation layer. The payload is
// copied at issue time. On the wire backend the message coalesces with
// other ops bound for the target; in-process it rides the engine's
// active messages (and a self-send on the wire applies immediately),
// so semantics match across backends: the handler runs on the target's
// goroutine, and completion (done / Finish) means it has run.
func AggSend(me *Rank, target int, id uint16, payload []byte, done Completer) {
	me.enter()
	defer me.exit()
	done = normCompleter(done)
	if target < 0 || target >= me.Ranks() {
		panic(fmt.Sprintf("upcxx: AggSend to invalid rank %d of %d", target, me.Ranks()))
	}
	me.ep.Stats.AMs++
	if me.agg != nil {
		if target == me.id {
			me.mustCd(rankApplier{r: me, from: me.id}.AM(id, payload))
			CompleteNow(done, me)
			return
		}
		me.agg.Send(target, id, payload, me.aggDefer(done))
		return
	}

	// In-process: ship as an engine active message executing on the
	// target's goroutine, with standard AM costs.
	fs := me.currentFinish()
	if fs != nil {
		fs.add(1)
	}
	if done != nil {
		done.compRegister(me, 1)
	}
	me.aggEv.register(1)
	job := me.job
	from := me.id
	pl := append([]byte(nil), payload...)
	t0 := me.Clock()
	me.ep.Clock.Advance(job.model.AMSendCost(len(pl)))
	arrival := job.model.AMArrival(t0, me.id, target, len(pl))
	me.ep.SendAt(target, arrival, len(pl), func(tep *gasnet.Endpoint) {
		tgt := job.ranks[tep.Rank]
		tgt.mustCd(rankApplier{r: tgt, from: from}.AM(id, pl))
		t := tgt.Clock()
		if done != nil {
			done.compComplete(t, tgt)
		}
		if fs != nil {
			fs.childDone(t, tgt)
		}
		me.aggEv.signal(t, tgt)
	})
}

// AggFlush ships every buffered batch without waiting for
// acknowledgements (use an Event, Finish, or Barrier to wait).
func AggFlush(me *Rank) {
	me.enter()
	defer me.exit()
	if me.agg != nil {
		me.agg.FlushAll()
	}
}

// AggDrain flushes and then blocks until every aggregated op this rank
// issued has been applied and acknowledged, servicing incoming traffic
// while waiting. Barrier calls it implicitly.
func AggDrain(me *Rank) {
	me.enter()
	defer me.exit()
	me.aggDrain()
}

func (r *Rank) aggDrain() {
	if r.agg != nil {
		// Ship now under the barrier reason — the waitProgress flush
		// below then finds nothing buffered, so traces and counters
		// attribute the pre-barrier drain correctly.
		r.agg.FlushAllBarrier()
		r.waitProgress(func() bool { return r.agg.Pending() == 0 })
		return
	}
	// In-process: wait out engine-AM AggSends this rank launched, so
	// both backends give aggregated ops the same barrier visibility.
	r.aggEv.Wait(r)
}

// waitProgress blocks until pred() is true, servicing this rank's full
// progress surface: engine tasks always; on a batch-capable wire job
// also conduit traffic, with the aggregation layer flushed up front
// (our own buffered ops may be exactly what pred waits on) and ticked
// as traffic arrives. It is the wait primitive behind Event.Wait,
// WaitUntil, Finish and the barrier's drain.
func (r *Rank) waitProgress(pred func() bool) {
	if r.agg == nil {
		r.ep.WaitFor(pred)
		return
	}
	r.aggPreBlock()
	// A wait entered from a task body nests inside batch application, but
	// nothing about it is batch application: scopes that drain while it
	// blocks — batch acknowledgements, self-targeted tasks, timers, a
	// death sweep — must ack at once (oweDone), because no end of an
	// Apply call is coming to ship a held ack until this wait returns.
	outer := r.applying
	r.applying = false
	err := r.aggBC.WaitFor(func() bool {
		// Drain self-targeted tasks first: a conduit message's handler
		// may have queued the work that satisfies pred. Tasks may
		// themselves buffer aggregated ops; those must ship before we
		// block again, because the conduit wait only re-evaluates this
		// predicate when a frame arrives — and the peer able to send
		// one may be blocked on exactly the ops we just buffered.
		if r.ep.Poll() > 0 {
			r.agg.FlushAll()
		}
		r.agg.Tick()
		return pred()
	})
	r.applying = outer
	r.mustCd(err)
}
