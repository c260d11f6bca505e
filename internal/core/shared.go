package core

// SharedVar is the paper's shared_var<T>: a single shared scalar, stored
// on rank 0 (as in UPC) and readable/writable by every rank. Construction
// is collective.
type SharedVar[T any] struct {
	ptr GlobalPtr[T]
}

// NewSharedVar collectively creates a shared scalar with affinity to rank
// 0. All ranks must call it, in the same order relative to other
// collectives.
func NewSharedVar[T any](me *Rank) SharedVar[T] {
	checkPOD[T]()
	if w := me.World(); !w.slot {
		var p GlobalPtr[T]
		if me.id == 0 {
			p = Allocate[T](me, 0, 1)
		}
		return SharedVar[T]{ptr: TeamAllGather(w, p)[0]}
	}
	slot := me.ep.Collective(
		func(int) any { return new(GlobalPtr[T]) },
		func(s any) {
			if me.id == 0 {
				*(s.(*GlobalPtr[T])) = Allocate[T](me, 0, 1)
			}
		},
		nil,
		int(sizeOf[T]()),
	)
	return SharedVar[T]{ptr: *(slot.(*GlobalPtr[T]))}
}

// Get reads the shared scalar (rvalue use: int a = s).
func (v SharedVar[T]) Get(me *Rank) T {
	me.ep.Clock.Advance(me.job.model.SharedAccessCost())
	return Read(me, v.ptr)
}

// Set writes the shared scalar (lvalue use: s = 1).
func (v SharedVar[T]) Set(me *Rank, val T) {
	me.ep.Clock.Advance(me.job.model.SharedAccessCost())
	Write(me, v.ptr, val)
}

// Ptr returns the scalar's global pointer.
func (v SharedVar[T]) Ptr() GlobalPtr[T] { return v.ptr }

// SharedArray is the paper's shared_array<T, BS>: a one-dimensional array
// distributed block-cyclically over all ranks with block size BS (default
// 1, i.e. cyclic, as in UPC). Construction is collective, mirroring
// sa.init(THREADS) dynamic initialization.
//
// Index arithmetic reproduces UPC layout: element i lives in block i/BS;
// blocks are dealt round-robin to ranks; within its rank a block occupies
// the (i/BS/THREADS)-th local block slot.
type SharedArray[T any] struct {
	n     int64
	bs    int64
	ranks int64
	elem  uint64
	// bases[r] is the segment offset of rank r's local portion; the slice
	// is shared read-only across all ranks (one copy per job, so that
	// 32K-rank directories stay linear in memory).
	bases []uint64
}

// NewSharedArray collectively creates a shared array of size elements
// with the given block size (use 1 for UPC's default cyclic layout).
// Every rank allocates its local portion in its own segment; the base
// directory is allgathered.
func NewSharedArray[T any](me *Rank, size, blockSize int) *SharedArray[T] {
	checkPOD[T]()
	if size < 0 || blockSize < 1 {
		panic("upcxx: NewSharedArray requires size >= 0 and blockSize >= 1")
	}
	p := int64(me.Ranks())
	sa := &SharedArray[T]{
		n:     int64(size),
		bs:    int64(blockSize),
		ranks: p,
		elem:  sizeOf[T](),
	}
	local := sa.localElems(int64(me.id))
	var base uint64
	if local > 0 {
		base = Allocate[T](me, me.id, int(local)).Offset()
	}
	if w := me.World(); !w.slot {
		// No shared slot across address spaces: allgather the base
		// directory over the conduit (each process keeps its own copy).
		sa.bases = TeamAllGather(w, base)
		return sa
	}
	slot := me.ep.Collective(
		func(n int) any { return make([]uint64, n) },
		func(s any) { s.([]uint64)[me.id] = base },
		nil,
		8,
	)
	sa.bases = slot.([]uint64)
	return sa
}

// Len returns the number of elements.
func (a *SharedArray[T]) Len() int { return int(a.n) }

// BlockSize returns the distribution block size.
func (a *SharedArray[T]) BlockSize() int { return int(a.bs) }

// localElems returns how many elements rank r stores: full blocks dealt
// round-robin, allocated in whole blocks.
func (a *SharedArray[T]) localElems(r int64) int64 {
	if a.n == 0 {
		return 0
	}
	blocks := (a.n + a.bs - 1) / a.bs
	mine := blocks / a.ranks
	if blocks%a.ranks > r {
		mine++
	}
	return mine * a.bs
}

// owner returns the rank and local element index of global element i.
func (a *SharedArray[T]) owner(i int64) (rank int64, local int64) {
	blk := i / a.bs
	rank = blk % a.ranks
	local = (blk/a.ranks)*a.bs + i%a.bs
	return
}

// Ptr returns the global pointer to element i; the pointer is phase-free
// (paper §III-B), so Ptr(i).Add(k) walks the owner's local memory, while
// index arithmetic a.Get(i+k) walks the distributed layout.
func (a *SharedArray[T]) Ptr(i int) GlobalPtr[T] {
	if i < 0 || int64(i) >= a.n {
		panic("upcxx: shared array index out of range")
	}
	rank, local := a.owner(int64(i))
	return gptrAt[T](int(rank), a.bases[rank]+uint64(local)*a.elem)
}

// Get reads element i from wherever it lives (sa[i] as rvalue). The
// shared-access translation cost models the proxy-object indirection that
// distinguishes UPC++ from compiled UPC (paper §V-A).
func (a *SharedArray[T]) Get(me *Rank, i int) T {
	me.ep.Clock.Advance(me.job.model.SharedAccessCost())
	return Read(me, a.Ptr(i))
}

// Set writes element i (sa[i] as lvalue).
func (a *SharedArray[T]) Set(me *Rank, i int, v T) {
	me.ep.Clock.Advance(me.job.model.SharedAccessCost())
	Write(me, a.Ptr(i), v)
}

// LocalSlice returns this rank's local portion as a directly addressable
// slice (the affinity-local compute path of upc_forall-style loops).
// Elements appear in local block order.
func (a *SharedArray[T]) LocalSlice(me *Rank) []T {
	n := a.localElems(int64(me.id))
	if n == 0 {
		return nil
	}
	return LocalSlice(me, gptrAt[T](me.id, a.bases[me.id]), int(n))
}

// OwnerOf returns the rank with affinity to element i (upc_threadof).
func (a *SharedArray[T]) OwnerOf(i int) int {
	rank, _ := a.owner(int64(i))
	return int(rank)
}
