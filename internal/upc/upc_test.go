package upc

import (
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/sim"
)

func TestVeneerBasics(t *testing.T) {
	core.Run(Config(4, sim.Local, true), func(me *core.Rank) {
		if Threads(me) != 4 || MyThread(me) != me.ID() {
			t.Error("THREADS/MYTHREAD")
		}
		sa := AllAlloc[int64](me, 40, 1)
		Forall(me, 40, func(i int) int { return i }, func(i int) {
			sa.Set(me, i, int64(i*i))
		})
		Barrier(me)
		for i := 0; i < 40; i++ {
			if sa.Get(me, i) != int64(i*i) {
				t.Errorf("sa[%d] = %d", i, sa.Get(me, i))
			}
		}
		Barrier(me)
	})
}

func TestForallPartition(t *testing.T) {
	// Every iteration must execute exactly once across all threads.
	core.Run(Config(3, sim.Local, true), func(me *core.Rank) {
		counts := core.NewSharedArray[int64](me, 30, 1)
		Forall(me, 30, func(i int) int { return i / 2 }, func(i int) {
			counts.Set(me, i, counts.Get(me, i)+1)
		})
		Barrier(me)
		if me.ID() == 0 {
			for i := 0; i < 30; i++ {
				if counts.Get(me, i) != 1 {
					t.Errorf("iteration %d ran %d times", i, counts.Get(me, i))
				}
			}
		}
		Barrier(me)
	})
}

func TestMemgetMemput(t *testing.T) {
	core.Run(Config(2, sim.Local, true), func(me *core.Rank) {
		buf := Alloc[int32](me, 8)
		all := core.TeamAllGather(me.World(), buf)
		if me.ID() == 0 {
			out := []int32{1, 2, 3, 4, 5, 6, 7, 8}
			Memput(me, all[1], out)
			in := make([]int32, 8)
			Memget(me, in, all[1])
			for i := range in {
				if in[i] != out[i] {
					t.Errorf("memget[%d] = %d", i, in[i])
				}
			}
			// Shared-to-shared.
			Memcpy(me, all[0], all[1], 8)
			if core.Read(me, buf.Add(7)) != 8 {
				t.Error("memcpy")
			}
		}
		Barrier(me)
		if err := Free(me, buf); err != nil {
			t.Error(err)
		}
		Barrier(me)
	})
}

func TestUPCProfileCheaperSharedAccess(t *testing.T) {
	// The baseline's reason to exist: the same shared-array traffic costs
	// less virtual time under the UPC profile than under UPC++.
	workload := func(me *core.Rank) {
		sa := core.NewSharedArray[uint64](me, 1024, 1)
		for i := me.ID(); i < 1024; i += me.Ranks() {
			sa.Set(me, i, uint64(i))
		}
		me.Barrier()
	}
	upcT := core.Run(Config(4, sim.Vesta, true), workload).VirtualNs
	upcxxT := core.Run(core.Config{Ranks: 4, Machine: sim.Vesta, SW: sim.SWUPCXX, Virtual: true}, workload).VirtualNs
	if upcT >= upcxxT {
		t.Errorf("UPC profile (%v ns) should be cheaper than UPC++ (%v ns)", upcT, upcxxT)
	}
}
