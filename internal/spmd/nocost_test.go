package spmd

import (
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/rpc"
)

// TestWireJobsChargeNothing pins the choice RunWire makes once, when
// it builds the job: a wire or hier job runs under sim.NoCost, so no
// operation moves a rank's virtual clock, whatever Machine and SW the
// Config names; only what the program charges itself (Lapse) does.
// Each rank runs one-sided reads, writes and xors on its neighbour's
// cell, a future-returning read, an aggregated xor, a task round trip
// and the team collectives.
func TestWireJobsChargeNothing(t *testing.T) {
	jobs := []struct {
		name string
		run  func(main func(me *core.Rank)) ([]core.Stats, error)
	}{
		{"wire 2", func(main func(me *core.Rank)) ([]core.Stats, error) {
			return RunWireLocal(2, 1<<16, core.Config{}, main)
		}},
		{"hier 2x2", func(main func(me *core.Rank)) ([]core.Stats, error) {
			return RunHierLocal(4, 2, 1<<16, core.Config{}, main)
		}},
	}
	for _, j := range jobs {
		var before [4]float64
		sts, err := j.run(func(me *core.Rank) {
			world := me.World()
			peer := (me.ID() + 1) % me.Ranks()
			p := core.TeamAllGather(world, core.Allocate[uint64](me, me.ID(), 8))[peer]
			core.Write(me, p, 7)
			core.Read(me, p)
			core.AtomicXor(me, p, 1)
			core.WriteSlice(me, p, make([]uint64, 8))
			core.ReadSlice(me, p, make([]uint64, 8))
			core.ReadAsync(me, p).Get()
			ev := core.NewEvent()
			core.AggXor64(me, p, 3, ev)
			ev.Wait(me)
			core.AsyncTaskFuture(me, peer, twEcho, rpc.U64s(1)).Get()
			core.TeamReduce(world, uint64(me.ID()), func(a, b uint64) uint64 { return a + b })
			me.Barrier()
			before[me.ID()] = me.Now()
			me.Lapse(5)
		})
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		for r, st := range sts {
			if before[r] != 0 || st.VirtualNs != 5 {
				t.Errorf("%s, rank %d: virtual clock %v after the operations, %v after Lapse(5); want 0 and 5",
					j.name, r, before[r], st.VirtualNs)
			}
		}
	}
}
