package obs

import "sync/atomic"

// Kind identifies what a span or instant event measures. Kinds map to
// trace-event names and categories (subsystems) in kindInfo below.
type Kind uint8

const (
	KInvalid Kind = iota

	// core: task dispatch/execution, futures, finish, event waits.
	KTaskDispatch // instant: closure async shipped to a rank
	KTaskExec     // span: a task body running on its target
	KRPCDispatch  // instant: registered task shipped over the wire
	KRPCExec      // span: a registered task body executing
	KFutResolve   // instant: a future settled
	KFutThen      // span: a continuation hop running
	KFinish       // span: a Finish block, enter to fully drained
	KFinishDrain  // instant: Finish body done, drain wait begins
	KEvWait       // span: a blocked Event.Wait / progress wait
	KBarrier      // span: a team/world barrier

	// agg: the message-aggregation layer.
	KAggOp    // instant: one op buffered into a destination batch
	KAggFlush // instant: a batch shipped; arg = flush reason
	KAggApply // span: an incoming batch decoded and applied

	// wire: the framed-TCP conduit.
	KWireTx // instant: frame sent; arg = handler index
	KWireRx // instant: frame dispatched; arg = handler index
	KPing   // instant: heartbeat probe sent
	KDeath  // instant: a peer declared dead

	// shm: the intra-host shared-memory conduit.
	KShmTx // instant: AM pushed into a peer's ring
	KShmRx // instant: AM popped from a ring

	// hier: the two-level conduit's collective phases.
	KHierLocal  // span: shm arrive/gather phase at a leader
	KHierLeader // span: leader-plane dissemination / tree phase
	KHierRel    // span: leader releasing its local ranks

	// net: the transport under everything.
	KNetFlush // instant: write buffers flushed; bytes = frames shipped
	KNetWait  // span: blocked in the transport inbox wait

	kindCount // sentinel
)

// kindInfo names each kind and assigns its subsystem category.
var kindInfo = [kindCount]struct{ name, cat string }{
	KInvalid:      {"invalid", "?"},
	KTaskDispatch: {"task.dispatch", "core"},
	KTaskExec:     {"task.exec", "core"},
	KRPCDispatch:  {"rpc.dispatch", "core"},
	KRPCExec:      {"rpc.exec", "core"},
	KFutResolve:   {"future.resolve", "core"},
	KFutThen:      {"future.then", "core"},
	KFinish:       {"finish", "core"},
	KFinishDrain:  {"finish.drain", "core"},
	KEvWait:       {"event.wait", "core"},
	KBarrier:      {"barrier", "core"},
	KAggOp:        {"agg.op", "agg"},
	KAggFlush:     {"agg.flush", "agg"},
	KAggApply:     {"agg.apply", "agg"},
	KWireTx:       {"wire.tx", "wire"},
	KWireRx:       {"wire.rx", "wire"},
	KPing:         {"wire.ping", "wire"},
	KDeath:        {"wire.death", "wire"},
	KShmTx:        {"shm.tx", "shm"},
	KShmRx:        {"shm.rx", "shm"},
	KHierLocal:    {"hier.local", "hier"},
	KHierLeader:   {"hier.leader", "hier"},
	KHierRel:      {"hier.release", "hier"},
	KNetFlush:     {"net.flush", "net"},
	KNetWait:      {"net.wait", "net"},
}

// Name returns the kind's trace-event name.
func (k Kind) Name() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].name
	}
	return "unknown"
}

// Category returns the kind's subsystem.
func (k Kind) Category() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].cat
	}
	return "?"
}

// Event phases within the ring.
const (
	evBegin   = 1
	evEnd     = 2
	evInstant = 3
)

// Event is one decoded ring record.
type Event struct {
	Seq   uint64 // global claim order within the ring
	TNs   uint64 // nanoseconds since the process obs epoch
	Ev    uint8  // evBegin / evEnd / evInstant
	Kind  Kind
	Peer  int32 // peer rank, -1 when not applicable
	Bytes uint32
	Arg   uint64 // kind-specific (handler index, flush reason, ...)
}

// recWords is the ring slot width: 4 x 8 bytes = 32 bytes per record.
const recWords = 4

// Ring is one rank's fixed-size lock-free trace ring. Writers claim a
// slot with one atomic add and commit it seqlock-style: word 0 is
// zeroed, words 1..3 written, then word 0 stored last with the claim
// sequence embedded — so a concurrent Snapshot either sees a fully
// committed record or skips the slot. Old records are overwritten in
// claim order; Dropped derives the overwrite count from the claim
// counter, so accounting is exact under any number of writers.
//
// All methods are safe on a nil ring (no-ops), which is the disabled
// fast path: components capture their ring once, and when tracing is
// off the pointer is nil.
type Ring struct {
	rank  int
	pid   int // host index for trace export (SetPid)
	mask  uint64
	slots []atomic.Uint64
	pos   atomic.Uint64 // next claim sequence
}

// NewRing builds a ring of at least capacity records (rounded up to a
// power of two) for the given rank.
func NewRing(rank, capacity int) *Ring {
	n := uint64(1)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &Ring{rank: rank, mask: n - 1, slots: make([]atomic.Uint64, n*recWords)}
}

// SetPid tags the ring with its host index; the Chrome trace exporter
// uses it as the pid so co-located ranks group under one process row.
func (r *Ring) SetPid(host int) {
	if r != nil {
		r.pid = host
	}
}

// Rank returns the ring's rank (0 for a nil ring).
func (r *Ring) Rank() int {
	if r == nil {
		return 0
	}
	return r.rank
}

// Cap returns the ring capacity in records.
func (r *Ring) Cap() uint64 {
	if r == nil {
		return 0
	}
	return r.mask + 1
}

// Written returns how many records have ever been claimed.
func (r *Ring) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.pos.Load()
}

// Dropped returns how many records have been overwritten (lost to
// wraparound): everything claimed beyond one full capacity.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if n := r.pos.Load(); n > r.mask+1 {
		return n - (r.mask + 1)
	}
	return 0
}

// record claims a slot and commits one record. The commit word packs
// (seq+1)<<16 | kind<<8 | ev, so a reader can verify both that the
// slot holds the generation it expects and that the write finished.
// r is not nil: that half of the disabled-tracing guard lives in the
// inlinable wrappers below, so a call site whose component captured no
// ring costs a compare and a branch, not a call.
func (r *Ring) record(ev uint8, k Kind, peer int32, bytes uint32, arg uint64) {
	if !tracing.Load() {
		return
	}
	t := nowNs()
	s := r.pos.Add(1) - 1
	i := (s & r.mask) * recWords
	r.slots[i].Store(0) // invalidate while the data words change
	r.slots[i+1].Store(t)
	r.slots[i+2].Store(uint64(uint32(peer))<<32 | uint64(bytes))
	r.slots[i+3].Store(arg)
	r.slots[i].Store((s+1)<<16 | uint64(k)<<8 | uint64(ev))
}

// Begin opens a span of the given kind. Pair with End; spans must nest
// per goroutine (the exporter pairs them stack-wise per ring).
func (r *Ring) Begin(k Kind, peer int32, bytes uint32) {
	if r != nil {
		r.record(evBegin, k, peer, bytes, 0)
	}
}

// End closes the innermost open span of the given kind.
func (r *Ring) End(k Kind) {
	if r != nil {
		r.record(evEnd, k, -1, 0, 0)
	}
}

// Instant records a point event.
func (r *Ring) Instant(k Kind, peer int32, bytes uint32, arg uint64) {
	if r != nil {
		r.record(evInstant, k, peer, bytes, arg)
	}
}

// Snapshot decodes the currently resident records in claim order. It
// is safe concurrently with writers: a slot mid-overwrite is skipped
// (its commit word does not match the expected generation before and
// after the data reads), so the result may miss the newest few records
// but never contains a torn one.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	end := r.pos.Load()
	capn := r.mask + 1
	start := uint64(0)
	if end > capn {
		start = end - capn
	}
	out := make([]Event, 0, end-start)
	for s := start; s < end; s++ {
		i := (s & r.mask) * recWords
		w0 := r.slots[i].Load()
		if w0>>16 != s+1 {
			continue // overwritten past us, or not yet committed
		}
		t := r.slots[i+1].Load()
		pb := r.slots[i+2].Load()
		arg := r.slots[i+3].Load()
		if r.slots[i].Load() != w0 {
			continue // overwritten while we read the data words
		}
		out = append(out, Event{
			Seq:   s,
			TNs:   t,
			Ev:    uint8(w0 & 0xFF),
			Kind:  Kind((w0 >> 8) & 0xFF),
			Peer:  int32(uint32(pb >> 32)),
			Bytes: uint32(pb),
			Arg:   arg,
		})
	}
	return out
}
