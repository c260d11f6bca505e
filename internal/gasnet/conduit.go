package gasnet

import (
	"errors"
	"fmt"
	"time"
)

// Conduit is the backend seam of the runtime — the layer the paper's
// Fig 2 draws between GASNet and the swappable network conduits. Every
// cross-rank operation the core runtime performs on behalf of the
// remote-access API is expressed in this vocabulary: one-sided data
// movement, a fixed-function remote atomic, global memory management,
// keyed team collectives (a barrier and an allgather over any ordered
// subset of ranks, the world included), and a lock service. All
// payloads are plain bytes (the segment's pointer-free guarantee makes
// every shared object byte-serializable), so a conduit may ship them
// over a wire; nothing in the vocabulary requires shared memory.
//
// Three implementations exist: ProcConduit runs over the in-process
// Engine (ranks are goroutines; the virtual-time cost model applies),
// WireConduit runs over internal/transport's framed TCP messages (ranks
// are OS processes), and HierConduit composes a shared-memory plane
// with the wire. Every one of them moves data non-blockingly (GetAsync,
// PutAsync) — on the wire the frames leave now and onDone fires from
// progress dispatch, in-process the copy is the completed transfer —
// so the runtime never asks which conduit it has. Closure-carrying
// asyncs are deliberately NOT part of this interface — Go closures do
// not serialize. The core settles a closure's reach when it builds the
// job, which holds rank handles only for the ranks in its address
// space: a closure aimed at any other rank fails with ErrNotWireCapable.
//
// A Conduit is driven by its rank's single SPMD goroutine: blocking
// calls service incoming requests while waiting (the GASNet progress
// rule), so a rank stalled in TeamBarrier still serves its peers' Gets.
// Implementations are not required to be safe for concurrent callers.
type Conduit interface {
	// Rank returns the calling rank's index; Ranks the job size.
	Rank() int
	Ranks() int

	// GetAsync starts copying len(p) bytes from rank's segment at off
	// into p and returns without waiting; onDone runs on the calling
	// rank's goroutine once every byte has landed (err nil), or with the
	// failure: a refusal (the range lies outside the target's segment),
	// a reply deadline expiry (timeout > 0, resilient conduits only) or
	// the target's death. p must stay untouched until then. A non-nil
	// return means onDone never runs; otherwise it runs exactly once,
	// possibly before GetAsync returns (a co-located or in-process
	// transfer completes inside the call).
	GetAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error
	// PutAsync starts copying p into rank's segment at off; onDone runs
	// once the target has applied every byte, or with the failure. p is
	// the caller's again when PutAsync returns. Same timeout and
	// exactly-once contract as GetAsync.
	PutAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error

	// Get and Put are GetAsync and PutAsync waited on, with no deadline
	// — the paper's copy as async_copy plus a wait (§III-D).
	Get(rank int, off uint64, p []byte) error
	Put(rank int, off uint64, p []byte) error

	// Xor64 atomically xors val into the 8 bytes at off in rank's
	// segment and returns the new value (the HPCC update atomic).
	Xor64(rank int, off uint64, val uint64) (uint64, error)

	// Alloc reserves size bytes in rank's segment; Free releases an
	// allocation. Remote allocation is the paper's §III-C capability.
	Alloc(rank int, size uint64) (uint64, error)
	Free(rank int, off uint64) error

	// TeamAllGather deposits contrib and returns every member's
	// contribution indexed by team rank (position in members).
	// Contributions may be empty and may differ in length. Every member
	// must call with the same key and the same members slice (world
	// ranks in team-rank order, members[0] acting as the rendezvous
	// root); keys must be unique per collective operation — the core
	// derives them from the team id and a per-team sequence number, so
	// independent teams may run collectives concurrently. On a resilient
	// conduit a member declared dead during the collective comes back
	// as an empty slot, and a dead root fails the others with
	// RankDeadError. Every typed collective reduces to this.
	TeamAllGather(key uint64, members []int, contrib []byte) ([][]byte, error)

	// TeamBarrier blocks until every member arrives at key, servicing
	// requests while waiting.
	TeamBarrier(key uint64, members []int) error

	// LockNew creates a lock homed on the calling rank and returns its
	// id; LockAcquire blocks until the lock homed on `home` is held
	// (try: no queueing, reports success); LockRelease hands it to the
	// oldest waiter or frees it.
	LockNew() uint64
	LockAcquire(home int, id uint64, try bool) (bool, error)
	LockRelease(home int, id uint64) error

	// Poll services queued requests without blocking and reports how
	// many ran (the conduit half of the paper's advance()).
	Poll() int

	// Capabilities reports which optional extensions this conduit
	// implements, as one discoverable probe (see Caps). The core runtime
	// reads it once at job start instead of scattering interface-upgrade
	// type asserts; a composing conduit (HierConduit) advertises exactly
	// the intersection its legs support.
	Capabilities() Caps

	// Close tears down the conduit's resources. The caller must have
	// synchronized (e.g. a final TeamBarrier) first.
	Close() error
}

// Caps is a conduit's optional-capability surface: each field is nil
// when the backend does not implement the extension, or the extension
// itself when it does. Capabilities() returning a struct of typed
// interfaces — rather than callers type-asserting the conduit — is
// what lets a composing backend advertise a capability set different
// from its Go method set (HierConduit, for example, carries a
// resilient wire leg but does not offer resilience, because its shm
// plane has no failure detector).
//
// Invariant: a non-nil field must behave exactly as its interface
// documents; the table-driven caps test asserts each backend reports
// exactly what it implements.
type Caps struct {
	// Batch is the aggregation plane (SendBatch/SetBatchHandler/
	// WaitFor); nil on backends where a remote access is already a
	// direct load/store (ProcConduit).
	Batch BatchConduit
	// Resilient is the survivable-peer-loss extension; nil on backends
	// without a failure detector.
	Resilient ResilientConduit
	// Counters is the backend's named traffic metering; nil when the
	// backend keeps no counters.
	Counters CounterSource
	// Locality reports the host topology the conduit was launched
	// with; nil when the backend has no notion of co-location.
	Locality LocalityConduit
	// Waker is the cross-goroutine wakeup extension: external threads
	// (an HTTP server, a signal handler) nudging a blocked progress
	// loop. Nil on backends whose WaitFor already spins (ProcConduit).
	Waker WakerConduit
}

// WakerConduit is the optional extension that lets a goroutine OTHER
// than the rank's progress goroutine unblock a WaitFor on this
// conduit. Wake must never block, must be safe to call from any
// goroutine any number of times, and must cause a concurrently blocked
// WaitFor on this conduit's own rank to re-evaluate its predicate
// promptly — whether that wait is parked on the inbox or in a read of
// a peer's socket. Spurious
// wakes (nobody waiting) must be harmless. This is the seam the
// service plane uses to hand work from HTTP handler goroutines to the
// SPMD progress loop without polling latency.
type WakerConduit interface {
	Wake()
}

// LocalityConduit exposes the host topology a conduit was launched
// with, so the runtime can form the local team without a side channel.
type LocalityConduit interface {
	// Nodes returns the host index of every rank (len = Ranks()); ranks
	// with equal entries are co-located and may share memory.
	Nodes() []int
}

// BatchConduit is the optional extension the message-aggregation layer
// (internal/agg, surfaced as core.AggPut/AggXor64/AggSend) requires of
// a conduit: ship one encoded batch of small operations as a single
// active message with a single acknowledgement, deliver incoming
// batches to an installed decoder, and block with progress. Only
// conduits whose ranks pay a per-message cost implement it —
// WireConduit does; ProcConduit deliberately does not, because an
// in-process remote access is already a direct segment load/store and
// coalescing would only add latency. The core runtime probes for it
// through Capabilities().Batch and falls back to immediate execution
// when it is absent, which is what makes the Agg* operations
// conduit-agnostic.
type BatchConduit interface {
	Conduit

	// SendBatch ships an encoded batch (internal/agg's op encoding) to
	// rank `to` without blocking and takes ownership of payload (a
	// frames pool buffer). The target answers with one acknowledgement,
	// which may carry a reply: ops the target sends back, in the same
	// encoding. On the calling rank's goroutine the conduit then applies
	// the reply with the installed apply, runs onAck — the target has
	// applied every op of the batch — and runs after. A reply is never
	// acknowledged. A batch to a dead rank completes as lost: onAck and
	// after run, and no reply is applied.
	SendBatch(to int, payload []byte, onAck func()) error

	// SetBatchHandler installs the layer above's three batch hooks, all
	// run on this rank's SPMD goroutine. On an incoming batch from rank
	// s the conduit calls apply(s, payload), which must apply every op
	// before returning and must not block; then reply(s), whose result
	// (nil, or a frames pool buffer the conduit takes over) travels
	// inside the batch's acknowledgement; then it queues that ack, and
	// only then runs after, so whatever after flushes leaves in the same
	// vectored write as the ack and behind it. reply must hand over only
	// ops that need no acknowledgement of their own. apply also decodes
	// the replies that come back on this rank's own batches' acks, and
	// after also follows every acknowledgement delivered to onAck. An
	// error from apply means the sender's bytes broke the protocol: the
	// sender is severed, as for any other malformed frame, and neither
	// reply, the ack nor after follows an incoming batch.
	SetBatchHandler(apply func(from int, payload []byte) error, reply func(to int) []byte, after func())

	// WaitFor blocks until pred() is true, servicing incoming requests
	// and acknowledgements while waiting.
	WaitFor(pred func() bool) error
}

// ResilienceConfig tunes the heartbeat failure detector of a conduit
// opted into resilient mode. Zero fields take defaults.
type ResilienceConfig struct {
	// HeartbeatInterval is how long a peer may stay silent before this
	// rank pings it (default 50ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long an outstanding ping may go
	// unanswered before the peer is declared dead (default 250ms).
	HeartbeatTimeout time.Duration
}

func (rc ResilienceConfig) withDefaults() ResilienceConfig {
	if rc.HeartbeatInterval <= 0 {
		rc.HeartbeatInterval = 50 * time.Millisecond
	}
	if rc.HeartbeatTimeout <= 0 {
		rc.HeartbeatTimeout = 250 * time.Millisecond
	}
	return rc
}

// ResilientConduit is the optional extension a conduit implements when
// it can survive individual rank deaths instead of aborting the job:
// heartbeat-based failure detection over the AM plane, typed
// ErrRankDead failures for operations addressed to dead ranks (instead
// of hangs), dead-rank-skipping collectives, and a coarse timer
// service the retry layer schedules backoffs on. Everything stays
// dormant — byte-for-byte legacy behavior — until EnableResilience is
// called. WireConduit implements it; ProcConduit does not (in-process
// rank death is simulated above the conduit, in core's chaos plane).
type ResilientConduit interface {
	Conduit

	// EnableResilience switches the conduit to survivable mode:
	// heartbeats start, peer loss marks single ranks dead rather than
	// tearing the job down, and onRankDeath (may be nil) runs on the
	// calling rank's goroutine exactly once per dead rank.
	EnableResilience(rc ResilienceConfig, onRankDeath func(rank int))

	// RankDead reports whether rank has been declared dead.
	RankDead(rank int) bool

	// After schedules fn on the conduit's tick sweep once d has
	// elapsed, running on the calling rank's goroutine. Requires
	// resilient mode (the tick is what drives it).
	After(d time.Duration, fn func())

	// Abort closes the conduit immediately without the goodbye
	// handshake, so peers observe this rank as dead — the in-process
	// simulation of a killed rank.
	Abort()
}

// ErrRankDead is the sentinel matched (via errors.Is) by every
// RankDeadError: the target of an operation was declared dead by the
// failure detector, so the operation failed fast instead of hanging.
var ErrRankDead = errors.New("gasnet: rank dead")

// RankDeadError reports which rank died and why.
type RankDeadError struct {
	Rank  int
	Cause error
}

func (e *RankDeadError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("gasnet: rank %d dead", e.Rank)
	}
	return fmt.Sprintf("gasnet: rank %d dead: %v", e.Rank, e.Cause)
}
func (e *RankDeadError) Is(target error) bool { return target == ErrRankDead }
func (e *RankDeadError) Unwrap() error        { return e.Cause }

// ErrTimeout is the sentinel matched by TimeoutError: a per-attempt
// reply deadline expired with the target still considered alive.
var ErrTimeout = errors.New("gasnet: reply deadline expired")

// TimeoutError reports an expired reply deadline for one request.
type TimeoutError struct {
	Rank  int
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("gasnet: no reply from rank %d within %v", e.Rank, e.After)
}
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// CounterSource is implemented by conduits that meter their own
// traffic (WireConduit's per-handler frame/byte counters); the runtime
// folds these into job statistics and the bench harness into its JSON
// artifact.
type CounterSource interface {
	Counters() map[string]float64
}

// Memory is the local segment surface a conduit serves remote requests
// against. *segment.Segment satisfies it; the indirection keeps gasnet
// below the segment package in the layering.
type Memory interface {
	Read(off uint64, p []byte)
	Write(off uint64, p []byte)
	// Window returns the n bytes at off, unlocked, or nil unless
	// [off, off+n) lies inside the memory: the bounds check for offsets
	// that arrive off the wire, and the view a get replies from.
	Window(off, n uint64) []byte
	Xor64(off, val uint64) uint64
	Alloc(size uint64) (uint64, error)
	Free(off uint64) error
}

// ErrNotWireCapable is returned (wrapped in a panic by the core, which
// follows the paper's failed-process-aborts-the-job model) when an
// operation that ships Go closures — a raw-closure Async or
// AsyncFuture, RMW, raw AMs — targets a rank outside the caller's
// address space: one the caller's job holds no handle for, which on a
// wire or hierarchical job is every rank but the caller itself.
// Closures do not serialize; remote invocation over the wire uses
// registered functions instead (the core's RegisterTask + AsyncTask /
// AsyncTaskFuture, which ship a registry index and POD-encoded
// arguments), and data movement uses the encoded-argument operations
// (Read/Write/Copy, AtomicXor, collectives, locks).
var ErrNotWireCapable = errors.New(
	"gasnet: operation ships a Go closure and cannot cross a wire conduit " +
		"(wire-capable: registered tasks [RegisterTask+AsyncTask], Read/Write/Copy/AsyncCopy, " +
		"AtomicXor, Allocate/Deallocate, Barrier, collectives, locks)")
