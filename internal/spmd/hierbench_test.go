package spmd

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"upcxx/internal/core"
)

// hierShapes are the three topologies a two-level collective can meet:
// both planes (2 hosts x 2 ranks, the shape of the coll_hier workload),
// wire only (4x1: every rank its own leader, no co-located peer) and
// shm only (1x4: one leader, no wire phase).
var hierShapes = []struct{ hosts, ppn int }{{2, 2}, {4, 1}, {1, 4}}

// benchHierColl is the layer benchmark of the hierarchical collectives:
// every rank of a RunHierLocal job loops coll b.N times and rank 0
// times each call. ns/coll is the mean, p50-ns/coll the median (they
// part when a wait path has a tail: a timer, a starved wake-up);
// bells/coll and parks/coll are the doorbell frames and the parks of
// all ranks over the whole job, warm-up included, per collective;
// allocs/coll is the process's mallocs over the timed loop, all ranks'
// together, per collective; direct/coll and handovers/coll are the
// frames the ranks read from a peer's socket themselves and the read
// sides passed between them and the reader goroutines, all ranks
// together, per collective of the timed loop (at 2x2 each leader parks
// for the other's one frame a collective, and reads it itself: 2 and
// 0). Run it at a fixed count, e.g. -benchtime 20000x: every b.N
// attempt builds a fresh job.
func benchHierColl(b *testing.B, hosts, ppn int, coll func(me *core.Rank, w *core.Team, i int)) {
	const warm = 500
	lat := make([]time.Duration, b.N)
	var mallocs uint64
	var net netCounts
	stats, err := RunHierLocal(hosts*ppn, ppn, 1<<17, core.Config{}, func(me *core.Rank) {
		w := me.World()
		for i := 0; i < warm; i++ {
			coll(me, w, i)
		}
		if me.ID() != 0 {
			for i := 0; i < b.N; i++ {
				coll(me, w, i)
			}
			return
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs
		net0 := netCalls()
		b.ResetTimer()
		for i := range lat {
			t0 := time.Now()
			coll(me, w, i)
			lat[i] = time.Since(t0)
		}
		b.StopTimer()
		net = netCalls().sub(net0)
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - mallocs
	})
	if err != nil {
		b.Fatal(err)
	}
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	slices.Sort(lat)
	var bells, parks float64
	for _, st := range stats {
		bells += st.Counters["shm_bells_tx"]
		parks += st.Counters["shm_parks"]
	}
	colls := float64(warm + b.N)
	b.ReportMetric(0, "ns/op") // the same figure as ns/coll
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/coll")
	b.ReportMetric(float64(lat[b.N/2].Nanoseconds()), "p50-ns/coll")
	b.ReportMetric(bells/colls, "bells/coll")
	b.ReportMetric(parks/colls, "parks/coll")
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/coll")
	b.ReportMetric(float64(net.direct)/float64(b.N), "direct/coll")
	b.ReportMetric(float64(net.handovers)/float64(b.N), "handovers/coll")
}

func BenchmarkHierBarrier(b *testing.B) {
	for _, s := range hierShapes {
		b.Run(fmt.Sprintf("%dx%d", s.hosts, s.ppn), func(b *testing.B) {
			benchHierColl(b, s.hosts, s.ppn, func(_ *core.Rank, w *core.Team, _ int) { w.Barrier() })
		})
	}
}

func BenchmarkHierAllGather(b *testing.B) {
	for _, s := range hierShapes {
		b.Run(fmt.Sprintf("%dx%d", s.hosts, s.ppn), func(b *testing.B) {
			benchHierColl(b, s.hosts, s.ppn, func(me *core.Rank, w *core.Team, i int) {
				vals := core.TeamAllGather(w, uint64(me.ID())+uint64(i)<<20)
				if got, want := vals[i%len(vals)], uint64(i%len(vals))+uint64(i)<<20; got != want {
					panic(fmt.Sprintf("hier allgather %d: slot %d = %#x, want %#x", i, i%len(vals), got, want))
				}
			})
		})
	}
}
