package upcxx

import (
	"upcxx/internal/core"
	"upcxx/internal/ndarray"
	"upcxx/internal/rpc"
	"upcxx/internal/sim"
)

// Execution model (paper §II, §IV): SPMD ranks, one goroutine each.
type (
	// Config describes a job: rank count, segment size, machine and
	// software profiles, thread-support mode.
	Config = core.Config
	// Rank is one SPMD execution unit's handle (MYTHREAD/THREADS live
	// here as ID()/Ranks()).
	Rank = core.Rank
	// Stats reports a finished job's wall/virtual time and counters.
	Stats = core.Stats
	// ThreadMode selects Serialized or Concurrent runtime locking.
	ThreadMode = core.ThreadMode
	// AccessPath selects Direct (RDMA analog) or AMMediated transfers.
	AccessPath = core.AccessPath
)

// Thread-support modes and access paths (paper §IV).
const (
	Serialized = core.Serialized
	Concurrent = core.Concurrent
	Direct     = core.Direct
	AMMediated = core.AMMediated
)

// Run executes main as an SPMD job (the analog of launching a UPC++
// program over N processes).
func Run(cfg Config, main func(me *Rank)) Stats { return core.Run(cfg, main) }

// Shared objects (paper §III-A) and global pointers (§III-B).
type (
	// GlobalPtr is global_ptr<T>: {rank, address}, phase-free arithmetic.
	GlobalPtr[T any] = core.GlobalPtr[T]
	// SharedVar is shared_var<T>: a scalar on rank 0.
	SharedVar[T any] = core.SharedVar[T]
	// SharedArray is shared_array<T, BS>: block-cyclic distribution.
	SharedArray[T any] = core.SharedArray[T]
)

// Null returns the null global pointer.
func Null[T any]() GlobalPtr[T] { return core.Null[T]() }

// NewSharedVar collectively creates a shared scalar.
func NewSharedVar[T any](me *Rank) SharedVar[T] { return core.NewSharedVar[T](me) }

// NewSharedArray collectively creates a block-cyclic shared array
// (shared_array<T, BS> A(size); use blockSize 1 for UPC's cyclic default).
func NewSharedArray[T any](me *Rank, size, blockSize int) *SharedArray[T] {
	return core.NewSharedArray[T](me, size, blockSize)
}

// Dynamic global memory management (paper §III-C).

// Allocate reserves count elements of T on the given rank — local or
// remote, the capability UPC and MPI lack; panics on exhaustion.
func Allocate[T any](me *Rank, rank, count int) GlobalPtr[T] {
	return core.Allocate[T](me, rank, count)
}

// TryAllocate is Allocate returning an error instead of panicking.
func TryAllocate[T any](me *Rank, rank, count int) (GlobalPtr[T], error) {
	return core.TryAllocate[T](me, rank, count)
}

// Deallocate frees an allocation from any rank.
func Deallocate[T any](me *Rank, p GlobalPtr[T]) error { return core.Deallocate(me, p) }

// Local casts a global pointer with local affinity to a raw pointer.
func Local[T any](me *Rank, p GlobalPtr[T]) *T { return core.Local(me, p) }

// LocalSlice views count local elements as a slice.
func LocalSlice[T any](me *Rank, p GlobalPtr[T], count int) []T {
	return core.LocalSlice(me, p, count)
}

// One-sided access and bulk transfer (paper §III-D).

// Read performs a blocking one-sided read (rvalue use of a shared object).
func Read[T any](me *Rank, p GlobalPtr[T]) T { return core.Read(me, p) }

// Write performs a blocking one-sided write (lvalue use).
func Write[T any](me *Rank, p GlobalPtr[T], v T) { core.Write(me, p, v) }

// RMW applies f atomically under the owner's segment lock. It ships a
// Go closure, so it is in-process-only for remote targets; on wire jobs
// use AtomicXor.
func RMW[T any](me *Rank, p GlobalPtr[T], f func(T) T) T { return core.RMW(me, p, f) }

// AtomicXor atomically xors val into the referenced word and returns the
// new value — the wire-capable fixed-function network atomic (the HPCC
// Random Access update).
func AtomicXor(me *Rank, p GlobalPtr[uint64], val uint64) uint64 {
	return core.AtomicXor(me, p, val)
}

// Copy is the blocking bulk transfer copy(src, dst, count).
func Copy[T any](me *Rank, src, dst GlobalPtr[T], count int) { core.Copy(me, src, dst, count) }

// AsyncCopy is the non-blocking bulk transfer async_copy, completing into
// done — an *Event, a *Promise, or an Onto(...) combination — or the
// rank's implicit handle when done is nil. Neither buffer may be
// touched until it completes.
func AsyncCopy[T any](me *Rank, src, dst GlobalPtr[T], count int, done Completer) {
	core.AsyncCopy(me, src, dst, count, done)
}

// ReadSlice stages shared memory into a private slice.
func ReadSlice[T any](me *Rank, src GlobalPtr[T], dst []T) { core.ReadSlice(me, src, dst) }

// WriteSlice stages a private slice into shared memory.
func WriteSlice[T any](me *Rank, dst GlobalPtr[T], src []T) { core.WriteSlice(me, dst, src) }

// WriteSliceAsync is the non-blocking WriteSlice, completing into done
// (or the rank's implicit handle when done is nil); src stays untouched
// until then.
func WriteSliceAsync[T any](me *Rank, dst GlobalPtr[T], src []T, done Completer) {
	core.WriteSliceAsync(me, dst, src, done)
}

// Futures-first one-sided operations: non-blocking reads, writes and
// copies returning a chainable *Future. On the wire conduit the
// request leaves immediately and the future resolves from progress
// dispatch when the reply lands — real overlap; in-process the data
// stages eagerly and the future carries the modeled completion time.

// ReadAsync starts a non-blocking one-sided read and returns its
// future; chain with Then to consume the value on arrival.
func ReadAsync[T any](me *Rank, p GlobalPtr[T]) *Future[T] { return core.ReadAsync(me, p) }

// WriteAsync starts a non-blocking one-sided write and returns its
// completion future.
func WriteAsync[T any](me *Rank, p GlobalPtr[T], v T) *Future[struct{}] {
	return core.WriteAsync(me, p, v)
}

// CopyAsync starts a non-blocking bulk transfer and returns its
// completion future (the future-returning async_copy).
func CopyAsync[T any](me *Rank, src, dst GlobalPtr[T], count int) *Future[struct{}] {
	return core.CopyAsync(me, src, dst, count)
}

// ReadSliceAsync starts staging shared memory into dst; the future
// resolves with dst once every element has landed.
func ReadSliceAsync[T any](me *Rank, src GlobalPtr[T], dst []T) *Future[[]T] {
	return core.ReadSliceAsync(me, src, dst)
}

// WriteSliceFuture starts the non-blocking WriteSlice and returns its
// completion future.
func WriteSliceFuture[T any](me *Rank, dst GlobalPtr[T], src []T) *Future[struct{}] {
	return core.WriteSliceFuture(me, dst, src)
}

// AsyncCopyFence completes all implicit-handle async copies (the
// "handle-less" synchronization of paper §V-E).
func AsyncCopyFence(me *Rank) { core.AsyncCopyFence(me) }

// Fence orders outstanding shared-memory operations (upc_fence).
func Fence(me *Rank) { core.Fence(me) }

// Synchronization (paper §III-F) and remote function invocation (§III-G).
type (
	// Event synchronizes non-blocking operations and async tasks.
	Event = core.Event
	// Future is the chainable completion object every asynchronous
	// operation can resolve: compose with Then/ThenAsync/WhenAll/
	// WhenAny, consume with Get/Wait/Ready on the owning rank.
	Future[T any] = core.Future[T]
	// Promise is the producer half of a future: operations complete
	// into it (Onto or anywhere an *Event is accepted), Finalize
	// returns the future of the set.
	Promise = core.Promise
	// Completer is the unified completion-target seam: *Event,
	// *Promise, Onto(...) sets and ToFinish() all satisfy it.
	Completer = core.Completer
	// Completion is an Onto(...) combination of completion targets;
	// it is a Completer and also an Async/AsyncTask option.
	Completion = core.Completion
	// Place designates async targets (a rank or group).
	Place = core.Place
	// TaskFn is an async task body.
	TaskFn = core.TaskFn
	// AsyncOpt configures Async (Payload, After, Signal, TaskFlops,
	// and Onto completion objects).
	AsyncOpt = core.AsyncOpt
	// Lock is a global mutual-exclusion lock (upc_lock).
	Lock = core.Lock
)

// NewEvent returns a fresh event.
func NewEvent() *Event { return core.NewEvent() }

// NewPromise creates a promise owned by the calling rank; complete
// operations into it and Finalize for the future of the whole set.
func NewPromise(me *Rank) *Promise { return core.NewPromise(me) }

// Onto combines completion targets (events, promises, ToFinish()) into
// one completion object, accepted by every *Event-taking operation and
// as an AsyncTask/Async option.
func Onto(targets ...Completer) *Completion { return core.Onto(targets...) }

// ToFinish returns a completion target attaching one operation to the
// enclosing Finish.
func ToFinish() Completer { return core.ToFinish() }

// Then attaches a synchronous continuation to a future; the returned
// future resolves with fn's result. Continuations run on the owning
// rank from progress dispatch and must not block (they may issue
// further asynchronous operations — the multi-hop chain idiom).
func Then[T, U any](f *Future[T], fn func(v T) U) *Future[U] { return core.Then(f, fn) }

// ThenAsync is Then with the continuation running as a task, with the
// owning rank's handle and task-dispatch cost.
func ThenAsync[T, U any](f *Future[T], fn func(me *Rank, v T) U) *Future[U] {
	return core.ThenAsync(f, fn)
}

// WhenAll joins futures: the result resolves with every value, in
// order, when the last input resolves.
func WhenAll[T any](fs ...*Future[T]) *Future[[]T] { return core.WhenAll(fs...) }

// WhenAny races futures: the result resolves with the first value.
func WhenAny[T any](fs ...*Future[T]) *Future[T] { return core.WhenAny(fs...) }

// Resolved returns an already-fulfilled future, for seeding chains.
func Resolved[T any](me *Rank, v T) *Future[T] { return core.Resolved(me, v) }

// On places an async on a single rank; OnRanks on a group; Everywhere on
// all ranks.
func On(rank int) Place          { return core.On(rank) }
func OnRanks(ranks ...int) Place { return core.OnRanks(ranks...) }
func Everywhere(me *Rank) Place  { return core.Everywhere(me) }

// Async launches fn on every rank of place: async(place)(function, args).
func Async(me *Rank, place Place, fn TaskFn, opts ...AsyncOpt) { core.Async(me, place, fn, opts...) }

// AsyncFuture launches fn and returns a future for its result.
func AsyncFuture[T any](me *Rank, target int, fn func(me *Rank) T, opts ...AsyncOpt) *Future[T] {
	return core.AsyncFuture(me, target, fn, opts...)
}

// AsyncAfter launches fn when `after` fires, optionally signaling
// `signal` on completion: async_after(place, after, signal)(task).
func AsyncAfter(me *Rank, place Place, after, signal *Event, fn TaskFn, opts ...AsyncOpt) {
	core.AsyncAfter(me, place, after, signal, fn, opts...)
}

// Async options.
func Payload(bytes int) AsyncOpt   { return core.Payload(bytes) }
func After(ev *Event) AsyncOpt     { return core.After(ev) }
func Signal(ev *Event) AsyncOpt    { return core.Signal(ev) }
func TaskFlops(f float64) AsyncOpt { return core.TaskFlops(f) }

// Finish waits for every async launched in body's dynamic scope (the
// paper's finish construct; a higher-order function replaces C++ RAII).
// Registered tasks (AsyncTask) are waited on transitively, across
// address spaces: the scope drains only when every remote descendant —
// including RPCs spawned by RPCs — has quiesced.
func Finish(me *Rank, body func()) { core.Finish(me, body) }

// Registered-function remote invocation (paper §III-G, wire-capable):
// Go closures cannot cross address spaces, so multi-process jobs ship
// a registered function's index plus POD-encoded arguments instead —
// the same compiler-free recipe real UPC++ uses (a function pointer
// and a trivially-copyable argument tuple). Register once per process,
// before the job starts, in the same order everywhere; then AsyncTask
// and AsyncTaskFuture run on both conduit backends, with requests,
// replies and finish acks coalescing on the wire's aggregation plane.

// Task is the portable handle of a registered function.
type Task = core.Task

// TaskBody is a registered task's implementation: it runs on the
// target rank with the calling rank and POD-encoded args, returning
// the reply bytes (nil when the caller asked for none). Bodies run
// inside progress dispatch and must not block.
type TaskBody = core.TaskBody

// RegisterTask registers fn under a unique name (panicking on
// duplicates) and returns the handle AsyncTask launches it by.
func RegisterTask(name string, fn TaskBody) Task { return core.RegisterTask(name, fn) }

// AsyncTask launches a registered task on every rank of place with
// POD-encoded arguments — the wire-capable async(place)(function,
// args...). Completion is observed through a surrounding Finish (which
// waits for the task's whole subtree), a Signal event (which fires
// when the body ran), or AsyncTaskFuture. After and TaskFlops work as
// with Async.
func AsyncTask(me *Rank, place Place, t Task, args []byte, opts ...AsyncOpt) {
	core.AsyncTask(me, place, t, args, opts...)
}

// AsyncTaskFuture launches a registered task on the target rank and
// returns a future resolving with the body's reply bytes.
func AsyncTaskFuture(me *Rank, target int, t Task, args []byte, opts ...AsyncOpt) *Future[[]byte] {
	return core.AsyncTaskFuture(me, target, t, args, opts...)
}

// PtrAt reconstructs a global pointer from its (rank, offset) pair —
// the deserialization half of passing global pointers through task
// arguments (encode with Where() and Offset()).
func PtrAt[T any](rank int, off uint64) GlobalPtr[T] { return core.PtrAt[T](rank, off) }

// TaskArgs packs u64 words — offsets, ranks, seeds, global-pointer
// halves — as a task-argument buffer, and TaskArgU64 consumes one word
// from the front (panicking on underflow: argument layout is part of a
// task's contract). Arbitrary POD layouts may of course be built with
// encoding/binary directly.
func TaskArgs(vs ...uint64) []byte { return rpc.U64s(vs...) }

// TaskArgU64 consumes one u64 from the front of an argument buffer.
func TaskArgU64(b []byte) (uint64, []byte) { return rpc.U64(b) }

// Message aggregation (beyond the paper; internal/agg): the Agg*
// operations buffer small remote ops into per-destination batches and
// ship each batch as one active message on wire-backed jobs —
// in-process they execute immediately. Completion attaches to an
// optional Event or the surrounding Finish; barriers drain the layer.

// AMHandler is an aggregated active-message body (see
// RegisterAMHandler).
type AMHandler = core.AMHandler

// RegisterAMHandler installs a handler for aggregated active messages;
// every rank must register the same ids before use.
func RegisterAMHandler(me *Rank, id uint16, fn AMHandler) { core.RegisterAMHandler(me, id, fn) }

// AggPut writes v through the aggregation layer, completing into done
// (any completion object, nil for barrier visibility).
func AggPut[T any](me *Rank, p GlobalPtr[T], v T, done Completer) { core.AggPut(me, p, v, done) }

// AggXor64 xors val into a shared word through the aggregation layer
// (fire-and-forget: no value travels back).
func AggXor64(me *Rank, p GlobalPtr[uint64], val uint64, done Completer) {
	core.AggXor64(me, p, val, done)
}

// AggSend delivers payload to the target rank's registered handler
// through the aggregation layer.
func AggSend(me *Rank, target int, id uint16, payload []byte, done Completer) {
	core.AggSend(me, target, id, payload, done)
}

// AggFlush ships every buffered aggregation batch without waiting.
func AggFlush(me *Rank) { core.AggFlush(me) }

// AggDrain flushes and waits until every aggregated op is applied.
func AggDrain(me *Rank) { core.AggDrain(me) }

// NewLock creates a global lock homed on the calling rank.
func NewLock(me *Rank) Lock { return core.NewLock(me) }

// Teams and collectives. The primary surface is teams-first: every
// collective is scoped to a Team — an ordered subset of ranks obtained
// from me.World() (everyone), me.Local() (the ranks sharing this
// rank's host, GASNet's PSHM domain) or SplitTeam (MPI_Comm_split
// semantics: same color ⇒ same team, ordered by key then world rank).
// Roots are team ranks, results are indexed in team-rank order, and
// on the hierarchical backend team collectives run in two phases —
// shared memory within a host, the wire between host leaders.

// Team is an ordered subset of ranks that collectives are scoped to.
// Obtain one with me.World(), me.Local(), me.SplitTeam(color, key) or
// t.Split; teams are cheap, deterministic values — the same split on
// every member yields the same team id and ordering.
type Team = core.Team

// TeamBroadcast distributes the value of the team's `root` slot to
// every member.
func TeamBroadcast[T any](t *Team, v T, root int) T { return core.TeamBroadcast(t, v, root) }

// TeamAllGather collects one value per member, indexed in team-rank
// order (shared read-only result).
func TeamAllGather[T any](t *Team, v T) []T { return core.TeamAllGather(t, v) }

// TeamReduce combines one value per member on every member, folding in
// team-rank order (deterministic for non-commutative ops).
func TeamReduce[T any](t *Team, v T, op func(a, b T) T) T { return core.TeamReduce(t, v, op) }

// TeamReduceSlices element-wise combines equal-length slices onto the
// team's root slot; other members receive nil.
func TeamReduceSlices[T any](t *Team, contrib []T, op func(a, b T) T, root int) []T {
	return core.TeamReduceSlices(t, contrib, op, root)
}

// TeamExclusiveScan returns the exclusive prefix combination in
// team-rank order (slot 0 receives identity).
func TeamExclusiveScan[T any](t *Team, v T, op func(a, b T) T, identity T) T {
	return core.TeamExclusiveScan(t, v, op, identity)
}

// TeamGather collects one value per member on the root slot (indexed
// in team-rank order); other members receive nil.
func TeamGather[T any](t *Team, v T, root int) []T { return core.TeamGatherAll(t, v, root) }

// Multidimensional domains and arrays (paper §III-E), modeled on
// Titanium's; see internal/ndarray for the full API.
type (
	// Point is a coordinate in N-space.
	Point = ndarray.Point
	// RectDomain is a strided rectangular index box (exclusive upper
	// bound).
	RectDomain = ndarray.RectDomain
	// Domain is a union of disjoint rectangles.
	Domain = ndarray.Domain
	// NDArray is the multidimensional array over a RectDomain.
	NDArray[T any] = ndarray.Array[T]
	// NDRef is a POD handle to an NDArray, storable in shared arrays
	// (the paper's directory idiom).
	NDRef[T any] = ndarray.Ref[T]
)

// P builds a point: P(1,2,3) is the paper's POINT(1,2,3).
func P(coords ...int) Point { return ndarray.P(coords...) }

// RD builds a unit-stride domain [lo, hi).
func RD(lo, hi Point) RectDomain { return ndarray.RD(lo, hi) }

// RDS builds a strided domain: RECTDOMAIN((lo), (hi), (stride)).
func RDS(lo, hi, stride Point) RectDomain { return ndarray.RDS(lo, hi, stride) }

// RD3 is the 3-D unit-stride convenience constructor.
func RD3(lox, loy, loz, hix, hiy, hiz int) RectDomain {
	return ndarray.RD3(lox, loy, loz, hix, hiy, hiz)
}

// NewNDArray allocates an array over dom in the caller's shared segment:
// ARRAY(T, dom).
func NewNDArray[T any](me *Rank, dom RectDomain) *NDArray[T] {
	return ndarray.New[T](me, dom)
}

// NDFromRef reconstructs an array view from its POD handle.
func NDFromRef[T any](ref NDRef[T]) *NDArray[T] { return ndarray.FromRef(ref) }

// Machine and software profiles for the performance model (DESIGN.md §4).
var (
	// Edison models the paper's Cray XC30; Vesta its IBM BG/Q; LocalMachine
	// a laptop-scale profile for tests and wall-clock runs.
	Edison       = sim.Edison
	Vesta        = sim.Vesta
	LocalMachine = sim.Local
)
