package core

import (
	"fmt"
	"reflect"
	"unsafe"

	"upcxx/internal/gasnet"
	"upcxx/internal/segment"
)

// GlobalPtr is the Go analog of the paper's global_ptr<T>: a POD value
// encapsulating the owning rank and the address (segment offset) of a
// shared object. Unlike UPC pointers-to-shared, and exactly like UPC++
// global pointers (paper §III-B), it carries no block offset/phase, so
// arithmetic works like ordinary pointer arithmetic.
//
// The zero GlobalPtr is the null pointer. GlobalPtr values may be freely
// stored in shared memory, sent in async arguments, etc.
type GlobalPtr[T any] struct {
	rank int32
	off1 uint64 // segment offset + 1; 0 means null
}

// Null returns the null global pointer.
func Null[T any]() GlobalPtr[T] { return GlobalPtr[T]{} }

// IsNull reports whether p is the null pointer.
func (p GlobalPtr[T]) IsNull() bool { return p.off1 == 0 }

// Where returns the rank that owns the referenced object (the paper's
// where(), i.e. UPC "thread affinity").
func (p GlobalPtr[T]) Where() int { return int(p.rank) }

// Offset returns the byte offset within the owner's segment.
func (p GlobalPtr[T]) Offset() uint64 { return p.off1 - 1 }

// Add returns p advanced by n elements (n may be negative), with ordinary
// C-style pointer arithmetic — no block phase is involved.
func (p GlobalPtr[T]) Add(n int) GlobalPtr[T] {
	if p.IsNull() {
		panic("upcxx: arithmetic on null global pointer")
	}
	d := int64(n) * int64(sizeOf[T]())
	return GlobalPtr[T]{rank: p.rank, off1: uint64(int64(p.off1) + d)}
}

// Diff returns the element distance p - q. Both pointers must reference
// the same rank's segment.
func (p GlobalPtr[T]) Diff(q GlobalPtr[T]) int {
	if p.rank != q.rank {
		panic("upcxx: Diff of global pointers with different affinity")
	}
	return int((int64(p.off1) - int64(q.off1)) / int64(sizeOf[T]()))
}

func (p GlobalPtr[T]) String() string {
	if p.IsNull() {
		return "gptr<null>"
	}
	return fmt.Sprintf("gptr{rank %d, off %d}", p.rank, p.Offset())
}

// gptrAt builds a GlobalPtr from a rank and raw segment offset.
func gptrAt[T any](rank int, off uint64) GlobalPtr[T] {
	return GlobalPtr[T]{rank: int32(rank), off1: off + 1}
}

func sizeOf[T any]() uint64 {
	var t T
	return uint64(unsafe.Sizeof(t))
}

func checkPOD[T any]() {
	var t T
	if err := segment.CheckPOD(reflect.TypeOf(t)); err != nil {
		panic("upcxx: " + err.Error())
	}
}

// TryAllocate reserves space for count elements of T in the given rank's
// shared segment, without running constructors (paper §III-C: allocate
// does not call the object's constructor; use placement initialization
// afterwards). Remote allocation — a capability UPC and MPI lack — is
// performed by an active message to the owner.
func TryAllocate[T any](me *Rank, rank, count int) (GlobalPtr[T], error) {
	checkPOD[T]()
	me.enter()
	defer me.exit()
	if rank < 0 || rank >= me.Ranks() {
		return Null[T](), fmt.Errorf("upcxx: allocate on invalid rank %d of %d", rank, me.Ranks())
	}
	if count < 0 {
		return Null[T](), fmt.Errorf("upcxx: allocate negative count %d", count)
	}
	size := uint64(count) * sizeOf[T]()
	if rank == me.id {
		off, err := me.seg.Alloc(size)
		if err != nil {
			return Null[T](), err
		}
		return gptrAt[T](rank, off), nil
	}
	me.aggPreBlock()
	off, err := me.cd.Alloc(rank, size)
	if err != nil {
		return Null[T](), fmt.Errorf("upcxx: remote allocate of %d bytes on rank %d: %w", size, rank, segment.ErrOutOfMemory)
	}
	return gptrAt[T](rank, off), nil
}

// Allocate is like TryAllocate but panics on failure (the bad_alloc
// analog), for the common benchmark/bootstrap paths.
func Allocate[T any](me *Rank, rank, count int) GlobalPtr[T] {
	p, err := TryAllocate[T](me, rank, count)
	if err != nil {
		panic(err)
	}
	return p
}

// Deallocate frees memory allocated with Allocate; any rank may free any
// pointer (paper §III-C), remotely via an active message if needed.
func Deallocate[T any](me *Rank, p GlobalPtr[T]) error {
	me.enter()
	defer me.exit()
	if p.IsNull() {
		return nil
	}
	if int(p.rank) == me.id {
		return me.seg.Free(p.Offset())
	}
	me.aggPreBlock()
	if err := me.cd.Free(int(p.rank), p.Offset()); err != nil {
		return fmt.Errorf("upcxx: remote free of %v failed", p)
	}
	return nil
}

// Local returns a raw pointer to the referenced object, which must have
// affinity to the calling rank (the paper's cast of a global_ptr to T*).
func Local[T any](me *Rank, p GlobalPtr[T]) *T {
	if p.IsNull() {
		return nil
	}
	if int(p.rank) != me.id {
		panic(fmt.Sprintf("upcxx: Local on %v from rank %d", p, me.id))
	}
	return segment.At[T](me.seg, p.Offset())
}

// LocalSlice returns a []T view of count elements starting at p, which
// must be local to the calling rank.
func LocalSlice[T any](me *Rank, p GlobalPtr[T], count int) []T {
	if int(p.rank) != me.id {
		panic(fmt.Sprintf("upcxx: LocalSlice on %v from rank %d", p, me.id))
	}
	return segment.Slice[T](me.seg, p.Offset(), count)
}

// Escalate builds a GlobalPtr to an object in the caller's own segment
// from a raw segment offset; combined with Allocate on the local rank it
// provides the paper's "escalate a private object into a shared object"
// idiom within the registered segment.
func Escalate[T any](me *Rank, off uint64) GlobalPtr[T] {
	return gptrAt[T](me.id, off)
}

// PtrAt reconstructs a global pointer from its (rank, offset) pair —
// the deserialization half of passing global pointers through
// registered-task arguments, which travel as POD bytes: encode with
// Where() and Offset(), rebuild with PtrAt. The pointer must have been
// produced by an allocation on the named rank.
func PtrAt[T any](rank int, off uint64) GlobalPtr[T] {
	return gptrAt[T](rank, off)
}

// Read performs a blocking one-sided read of the element referenced by p
// (the rvalue use of a shared object). The cost model charges software
// overhead plus a round trip; in Direct mode the data moves via a peer
// segment access (RDMA analog), in AMMediated mode via an active message.
func Read[T any](me *Rank, p GlobalPtr[T]) T {
	me.enter()
	defer me.exit()
	n := int(sizeOf[T]())
	me.ep.Stats.Gets++
	me.ep.Stats.GetBytes += int64(n)
	me.ep.Clock.Advance(me.job.model.GetCost(me.id, int(p.rank), n))
	if int(p.rank) == me.id {
		// The segment lock also serializes against remote writers.
		me.seg.Lock()
		v := *segment.At[T](me.seg, p.Offset())
		me.seg.Unlock()
		return v
	}
	if me.job.cfg.Access == AMMediated {
		var v T
		var done bool
		me.ep.Send(int(p.rank), 16, func(tep *gasnet.Endpoint) {
			tgt := me.job.ranks[tep.Rank]
			val := *segment.At[T](tgt.seg, p.Offset())
			tep.Send(me.id, n, func(*gasnet.Endpoint) { v = val; done = true })
		})
		me.ep.WaitFor(func() bool { return done })
		return v
	}
	var v T
	me.aggPreBlock()
	me.mustCd(me.cd.Get(int(p.rank), p.Offset(), valueBytes(&v)))
	return v
}

// valueBytes views a POD value's storage as bytes, the form the conduit
// data plane moves. Safe for exactly the types the segment accepts
// (pointer-free), which checkPOD enforces at allocation time.
func valueBytes[T any](v *T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(v)), sizeOf[T]())
}

// sliceBytes views a POD slice's backing storage as bytes.
func sliceBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), uint64(len(s))*sizeOf[T]())
}

// Write performs a blocking one-sided write of the element referenced by
// p (the lvalue use of a shared object).
func Write[T any](me *Rank, p GlobalPtr[T], v T) {
	me.enter()
	defer me.exit()
	n := int(sizeOf[T]())
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(n)
	me.ep.Clock.Advance(me.job.model.PutCost(me.id, int(p.rank), n))
	if int(p.rank) == me.id {
		me.seg.Lock()
		*segment.At[T](me.seg, p.Offset()) = v
		me.seg.Unlock()
		return
	}
	if me.job.cfg.Access == AMMediated {
		var done bool
		me.ep.Send(int(p.rank), 16+n, func(tep *gasnet.Endpoint) {
			tgt := me.job.ranks[tep.Rank]
			*segment.At[T](tgt.seg, p.Offset()) = v
			tep.Send(me.id, 0, func(*gasnet.Endpoint) { done = true })
		})
		me.ep.WaitFor(func() bool { return done })
		return
	}
	me.aggPreBlock()
	me.mustCd(me.cd.Put(int(p.rank), p.Offset(), valueBytes(&v)))
}

// RMW atomically applies f to the referenced element under the owner's
// segment lock and returns the new value — the network-atomic analog used
// by verification paths (e.g. conflict-free GUPS checking). It is charged
// as one round trip.
//
// RMW carries a Go closure, so on a wire-backed job it works only on
// elements local to the calling rank; remote wire RMW panics with
// gasnet.ErrNotWireCapable. The wire-capable fixed-function atomic is
// AtomicXor.
func RMW[T any](me *Rank, p GlobalPtr[T], f func(T) T) T {
	me.enter()
	defer me.exit()
	me.noWire("RMW", int(p.rank))
	n := int(sizeOf[T]())
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(n)
	me.ep.Clock.Advance(me.job.model.PutCost(me.id, int(p.rank), n))
	tseg := me.job.segs[p.rank]
	tseg.Lock()
	ptr := segment.At[T](tseg, p.Offset())
	*ptr = f(*ptr)
	v := *ptr
	tseg.Unlock()
	return v
}

// AtomicXor atomically xors val into the referenced word and returns
// the new value — the HPCC Random Access update as a fixed-function
// network atomic. Unlike RMW it ships no closure, so it is wire-capable
// and runs identically on both conduit backends. Charged as one round
// trip, like RMW.
func AtomicXor(me *Rank, p GlobalPtr[uint64], val uint64) uint64 {
	me.enter()
	defer me.exit()
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += 8
	me.ep.Clock.Advance(me.job.model.PutCost(me.id, int(p.rank), 8))
	me.aggPreBlock()
	v, err := me.cd.Xor64(int(p.rank), p.Offset(), val)
	me.mustCd(err)
	return v
}
