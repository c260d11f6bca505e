// Package upc is the Berkeley-UPC-flavored baseline of the evaluation:
// the same runtime as package core, exposed through UPC's vocabulary
// (Table I, left column) and run under the sim.SWUPC software-overhead
// profile, which models the Berkeley UPC compiler's specialized
// pointer-to-shared arithmetic ("the Berkeley UPC compiler and runtime
// are heavily optimized for shared array accesses", paper §V-A).
//
// The GUPS and Sample Sort baselines of Figs 4 and 6 are written against
// this package; the corresponding UPC++ versions use package core
// directly. The two differ only in the SW profile of the job they run
// under, which is exactly the comparison the paper makes.
package upc

import (
	"upcxx/internal/core"
	"upcxx/internal/sim"
)

// Config returns a core job configuration carrying the UPC software
// profile on the given machine.
func Config(ranks int, machine sim.Machine) core.Config {
	return core.Config{Ranks: ranks, Machine: machine, SW: sim.SWUPC}
}

// Threads returns THREADS.
func Threads(me *core.Rank) int { return me.Ranks() }

// MyThread returns MYTHREAD.
func MyThread(me *core.Rank) int { return me.ID() }

// AllAlloc collectively allocates a block-cyclically distributed shared
// array (upc_all_alloc with layout qualifier [bs]).
func AllAlloc[T any](me *core.Rank, size, bs int) *core.SharedArray[T] {
	return core.NewSharedArray[T](me, size, bs)
}

// Alloc allocates size elements in the calling thread's shared segment
// (upc_alloc).
func Alloc[T any](me *core.Rank, size int) core.GlobalPtr[T] {
	return core.Allocate[T](me, me.ID(), size)
}

// Free releases shared memory (upc_free).
func Free[T any](me *core.Rank, p core.GlobalPtr[T]) error { return core.Deallocate(me, p) }

// Memget copies shared-to-private (upc_memget).
func Memget[T any](me *core.Rank, dst []T, src core.GlobalPtr[T]) { core.ReadSlice(me, src, dst) }

// Memput copies private-to-shared (upc_memput).
func Memput[T any](me *core.Rank, dst core.GlobalPtr[T], src []T) { core.WriteSlice(me, dst, src) }

// Memcpy copies shared-to-shared (upc_memcpy).
func Memcpy[T any](me *core.Rank, dst, src core.GlobalPtr[T], n int) { core.Copy(me, src, dst, n) }

// Barrier is upc_barrier.
func Barrier(me *core.Rank) { me.Barrier() }

// Fence is upc_fence.
func Fence(me *core.Rank) { core.Fence(me) }

// NewLock creates a upc_lock on the calling thread.
func NewLock(me *core.Rank) core.Lock { return core.NewLock(me) }

// Forall iterates i in [0, n) executing body only for the iterations
// whose affinity expression equals MYTHREAD — the upc_forall loop. As in
// UPC, every thread evaluates the affinity test for every iteration (the
// Table I row "for(...) { if (affinity_cond) { stmts } }").
func Forall(me *core.Rank, n int, affinity func(i int) int, body func(i int)) {
	p := me.Ranks()
	for i := 0; i < n; i++ {
		if affinity(i)%p == me.ID() {
			body(i)
		}
	}
}
