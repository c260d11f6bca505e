package core_test

import (
	"sync"
	"testing"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/core"
	"upcxx/internal/rpc"
	"upcxx/internal/spmd"
)

// The fixed storm both backend-matrix tests of this package run: every
// rank launches stormTasks registered tasks at its right neighbour
// under one Finish (each body xors into the executor's own cell with
// AggXor64 — except the last, a relay whose body launches that xor as a
// child task on its own rank, so one task per rank takes a scope and
// recycles it), then stormPuts AggPuts and stormRW blocking Write/Read
// pairs at the neighbour. The aggregation thresholds are set so batches
// ship only where the program says (the Finish wait, the barrier), which
// makes every count below exact.
const (
	stormTasks = 300
	stormPuts  = 40
	stormRW    = 25
)

var stormAgg = agg.Config{MaxOps: 1 << 12, MaxAge: time.Hour}

var extMark = core.RegisterTask("core_test.ext.mark", func(me *core.Rank, _ int, args []byte) []byte {
	off, rest := rpc.U64(args)
	val, _ := rpc.U64(rest)
	core.AggXor64(me, core.PtrAt[uint64](me.ID(), off), val, nil)
	return nil
})

var extRelay = core.RegisterTask("core_test.ext.relay", func(me *core.Rank, _ int, args []byte) []byte {
	core.AsyncTask(me, core.On(me.ID()), extMark, args)
	return nil
})

func stormVal(rank, i int) uint64 { return uint64(rank+1)<<32 | uint64(i+1) }

// fixedStorm runs the storm on rank me and returns how many tasks it
// launched. helpers > 0 is the Concurrent-thread-mode variant: that many
// extra goroutines drive the same rank handle, sharing the puts and the
// Write/Read pairs with the SPMD goroutine, and there is no task storm
// (in that mode a body that re-enters the runtime from inside a locked
// progress call deadlocks, as aggregated AM handlers do).
func fixedStorm(t *testing.T, me *core.Rank, helpers int) (tasks int) {
	n := me.Ranks()
	next, prev := (me.ID()+1)%n, (me.ID()+n-1)%n
	// Word 0 is the xor cell, word 1 the put target, words 2.. one
	// Write/Read slot per driving goroutine.
	cells := core.TeamAllGather(me.World(), core.Allocate[uint64](me, me.ID(), 3+helpers))
	me.Barrier()

	if helpers == 0 {
		tasks = stormTasks
		core.Finish(me, func() {
			for i := 0; i < tasks; i++ {
				task := extMark
				if i == tasks-1 {
					task = extRelay
				}
				core.AsyncTask(me, core.On(next), task, rpc.U64s(cells[next].Offset(), stormVal(me.ID(), i)))
			}
		})
	}
	// Share g of the data operations: the puts first (a blocking Write
	// would flush them one batch each), then the Write/Read pairs.
	dataOps := func(g int) {
		for i := g; i < stormPuts; i += helpers + 1 {
			core.AggPut(me, cells[next].Add(1), stormVal(me.ID(), i), nil)
		}
		for i := g; i < stormRW; i += helpers + 1 {
			core.Write(me, cells[next].Add(2+g), stormVal(me.ID(), i))
			if got := core.Read(me, cells[next].Add(2+g)); got != stormVal(me.ID(), i) {
				t.Errorf("rank %d read back %#x, wrote %#x", me.ID(), got, stormVal(me.ID(), i))
			}
		}
	}
	var wg sync.WaitGroup
	for g := 1; g <= helpers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dataOps(g)
		}(g)
	}
	dataOps(0)
	wg.Wait()
	me.Barrier()

	var want uint64
	for i := 0; i < tasks; i++ {
		want ^= stormVal(prev, i)
	}
	if got := core.Read(me, cells[me.ID()]); got != want {
		t.Errorf("rank %d cell %#x, fold of rank %d's tasks %#x", me.ID(), got, prev, want)
	}
	me.Barrier()
	return tasks
}

// TestStatsCountsExact pins the job statistics of the fixed storm on
// all three backends, and in-process also with several goroutines
// driving each rank in Concurrent thread mode: the counters are plain
// words written only by whoever drives the rank (under the rank lock
// when that can be more than one goroutine), and must add up to
// exactly what the atomics they replaced counted. Run under -race it
// is also the referee of that claim.
func TestStatsCountsExact(t *testing.T) {
	sum := func(sts []core.Stats) (tot core.Stats) {
		tot.Counters = map[string]float64{}
		for _, st := range sts {
			tot.AMs += st.AMs
			tot.Tasks += st.Tasks
			tot.Puts += st.Puts
			tot.Gets += st.Gets
			tot.PutBytes += st.PutBytes
			tot.GetBytes += st.GetBytes
			for k, v := range st.Counters {
				tot.Counters[k] += v
			}
		}
		return tot
	}
	for _, tc := range []struct {
		name string
		n    int
		wire bool
		run  func(main func(me *core.Rank)) core.Stats
	}{
		{"proc", 4, false, func(main func(me *core.Rank)) core.Stats {
			return core.Run(core.Config{Ranks: 4}, main)
		}},
		{"proc-concurrent", 4, false, func(main func(me *core.Rank)) core.Stats {
			return core.Run(core.Config{Ranks: 4, Threads: core.Concurrent}, main)
		}},
		{"tcp", 2, true, func(main func(me *core.Rank)) core.Stats {
			sts, err := spmd.RunWireLocal(2, 1<<17, core.Config{Agg: stormAgg}, main)
			if err != nil {
				t.Fatal(err)
			}
			return sum(sts)
		}},
		{"hier", 4, true, func(main func(me *core.Rank)) core.Stats {
			sts, err := spmd.RunHierLocal(4, 2, 1<<17, core.Config{Agg: stormAgg}, main)
			if err != nil {
				t.Fatal(err)
			}
			return sum(sts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			helpers, tasks := 0, int64(stormTasks)
			if tc.name == "proc-concurrent" {
				helpers, tasks = 3, 0
			}
			st := tc.run(func(me *core.Rank) { fixedStorm(t, me, helpers) })
			n := int64(tc.n)
			// Per rank: a put per executed body, AggPut and Write; a get per
			// Read, and the one that checks the cell.
			want := core.Stats{
				Puts:     n * (tasks + stormPuts + stormRW),
				Gets:     n * (stormRW + 1),
				PutBytes: n * (tasks + stormPuts + stormRW) * 8,
				GetBytes: n * (stormRW + 1) * 8,
			}
			if st.Puts != want.Puts || st.Gets != want.Gets || st.PutBytes != want.PutBytes || st.GetBytes != want.GetBytes {
				t.Errorf("puts/gets/bytes %d/%d/%d/%d, want %d/%d/%d/%d", st.Puts, st.Gets, st.PutBytes, st.GetBytes,
					want.Puts, want.Gets, want.PutBytes, want.GetBytes)
			}
			// One AM and one executed task per launch — the storm's, and the
			// relay's child — plus one wake each time a Finish count reaches
			// zero: once per Finish on the wire, where acks arrive only during
			// the wait; in-process, where the neighbour executes while the body
			// still launches, any number of times up to once per task.
			launches := tasks
			if tasks > 0 {
				launches++
			}
			wakes := st.AMs - n*launches
			if st.AMs != st.Tasks || wakes < min(n, tasks) || wakes > tasks || (tc.wire && wakes != n) {
				t.Errorf("AMs %d, Tasks %d (%d wakes) for %d launches on %d ranks", st.AMs, st.Tasks, wakes, n*launches, n)
			}
			// The relay is the one body per rank that takes a task scope.
			if got, want := st.Counters["core_task_scopes"], float64(n*(launches-tasks)); got != want {
				t.Errorf("core_task_scopes = %v, want %v", got, want)
			}
			if !tc.wire {
				return
			}
			// Per rank the aggregator carries the requests in one batch and
			// the puts in another; the one counted done-ack the neighbour's
			// request batch earns rides that batch's ack as its reply — on
			// hier the shm ack (ranks 0-1, 2-3) as well as the wire ack
			// (1-2, 3-0).
			for name, want := range map[string]float64{
				"agg_ops":         float64(n * (stormTasks + 1 + stormPuts)),
				"agg_batches":     float64(n * 2),
				"agg_ack_replies": float64(n),
			} {
				if got := st.Counters[name]; got != want {
					t.Errorf("counter %s = %v, want %v", name, got, want)
				}
			}
		})
	}
}
