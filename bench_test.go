package upcxx_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (laptop-scale parameters; the full paper-scale sweeps live in
// cmd/upcxx-bench), plus ablation benches for the design choices
// DESIGN.md §5 calls out. Reported custom metrics carry the paper's
// units for each experiment.

import (
	"testing"

	"upcxx"
	"upcxx/internal/bench/gups"
	"upcxx/internal/bench/harness"
	"upcxx/internal/bench/lulesh"
	"upcxx/internal/bench/raytrace"
	"upcxx/internal/bench/samplesort"
	"upcxx/internal/bench/stencil"
	"upcxx/internal/core"
	"upcxx/internal/mpi"
	"upcxx/internal/sim"
)

// BenchmarkFig4TableIVRandomAccess: Random Access (GUPS), UPC vs UPC++.
func BenchmarkFig4TableIVRandomAccess(b *testing.B) {
	for _, flavor := range []string{"upc", "upcxx"} {
		b.Run(flavor, func(b *testing.B) {
			var last gups.Result
			for i := 0; i < b.N; i++ {
				last = gups.Run(gups.Params{
					Ranks: 16, LogTableSize: 14, UpdatesPerRank: 500,
					Flavor: flavor, Machine: sim.Vesta, Virtual: true,
				})
			}
			b.ReportMetric(last.GUPS, "GUPS")
			b.ReportMetric(last.UsecPerUpdate, "usec/update")
		})
	}
}

// BenchmarkFig5Stencil: 3-D 7-point stencil, Titanium vs UPC++.
func BenchmarkFig5Stencil(b *testing.B) {
	for _, flavor := range []string{"titanium", "upcxx"} {
		b.Run(flavor, func(b *testing.B) {
			var last stencil.Result
			for i := 0; i < b.N; i++ {
				last = stencil.Run(stencil.Params{
					Ranks: 8, Box: 16, Iters: 3,
					Flavor: flavor, Machine: sim.Edison, Virtual: true,
				})
			}
			b.ReportMetric(last.GFLOPS, "GFLOPS")
		})
	}
}

// BenchmarkFig6SampleSort: distributed sample sort, UPC vs UPC++.
func BenchmarkFig6SampleSort(b *testing.B) {
	for _, flavor := range []string{"upc", "upcxx"} {
		b.Run(flavor, func(b *testing.B) {
			var last samplesort.Result
			for i := 0; i < b.N; i++ {
				last = samplesort.Run(samplesort.Params{
					Ranks: 8, KeysPerRank: 16384,
					Flavor: flavor, Machine: sim.Edison, Virtual: true,
				})
			}
			if !last.Sorted {
				b.Fatal("sort verification failed")
			}
			b.ReportMetric(last.TBPerMin*1e3, "GB/min")
		})
	}
}

// BenchmarkFig7RayTrace: Monte-Carlo renderer strong scaling point.
func BenchmarkFig7RayTrace(b *testing.B) {
	for _, mode := range []string{"static", "steal"} {
		b.Run(mode, func(b *testing.B) {
			var last raytrace.Result
			for i := 0; i < b.N; i++ {
				last = raytrace.Run(raytrace.Params{
					Ranks: 4, Width: 96, Height: 64, SPP: 2, Tile: 16,
					Machine: sim.Edison, Virtual: true, Steal: mode == "steal",
				})
			}
			b.ReportMetric(last.Seconds*1e3, "model-ms/frame")
		})
	}
}

// BenchmarkFig8LULESH: shock-hydro proxy, MPI vs UPC++.
func BenchmarkFig8LULESH(b *testing.B) {
	for _, flavor := range []string{"mpi", "upcxx"} {
		b.Run(flavor, func(b *testing.B) {
			var last lulesh.Result
			for i := 0; i < b.N; i++ {
				last = lulesh.Run(lulesh.Params{
					Side: 2, E: 6, Iters: 4,
					Flavor: flavor, Machine: sim.Edison, Virtual: true, ComputeScale: 16,
				})
			}
			b.ReportMetric(last.FOM/1e6, "Mzones/s")
		})
	}
}

// BenchmarkHarnessTableIV drives the experiment registry end to end on
// its smallest sweep and reports metrics straight from the typed Result
// the JSON artifact carries — the same path `upcxx-bench -json` takes.
func BenchmarkHarnessTableIV(b *testing.B) {
	e, ok := harness.Lookup("tableiv")
	if !ok {
		b.Fatal("tableiv not registered")
	}
	var last harness.Result
	for i := 0; i < b.N; i++ {
		last = e.Run(harness.Options{Quick: true})
	}
	for _, s := range last.Series {
		p := s.Points[len(s.Points)-1]
		b.ReportMetric(p.Value, s.System+"-"+last.Unit)
		if p.Counters["updates_per_sec"] <= 0 {
			b.Fatalf("series %q missing updates_per_sec counter", s.Name)
		}
	}
}

// BenchmarkAblationAMvsDirect compares the two one-sided access paths
// (DESIGN.md §5): Direct (RDMA analog) vs AMMediated (software handler).
func BenchmarkAblationAMvsDirect(b *testing.B) {
	for _, access := range []struct {
		name string
		mode core.AccessPath
	}{{"direct", core.Direct}, {"am-mediated", core.AMMediated}} {
		b.Run(access.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				upcxx.Run(upcxx.Config{Ranks: 4, Access: access.mode},
					func(me *upcxx.Rank) {
						sa := upcxx.NewSharedArray[uint64](me, 1024, 1)
						for k := me.ID(); k < 1024; k += me.Ranks() {
							sa.Set(me, (k+5)%1024, uint64(k))
						}
						me.Barrier()
					})
			}
		})
	}
}

// BenchmarkAblationThreadModes compares Serialized vs Concurrent runtime
// locking (paper §IV).
func BenchmarkAblationThreadModes(b *testing.B) {
	for _, mode := range []struct {
		name string
		tm   core.ThreadMode
	}{{"serialized", core.Serialized}, {"concurrent", core.Concurrent}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				upcxx.Run(upcxx.Config{Ranks: 2, Threads: mode.tm},
					func(me *upcxx.Rank) {
						p := upcxx.Allocate[int64](me, me.ID(), 64)
						for k := 0; k < 2000; k++ {
							upcxx.Write(me, p.Add(k%64), int64(k))
						}
						me.Barrier()
					})
			}
		})
	}
}

// BenchmarkAblationUnstrided compares the unstrided fast indexing path
// against point-indexed access (paper §III-E's template specialization).
func BenchmarkAblationUnstrided(b *testing.B) {
	run := func(b *testing.B, rowPath bool) {
		upcxx.Run(upcxx.Config{Ranks: 1}, func(me *upcxx.Rank) {
			dom := upcxx.RD3(0, 0, 0, 32, 32, 32)
			a := upcxx.NewNDArray[float64](me, dom)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum := 0.0
				if rowPath {
					for x := 0; x < 32; x++ {
						for y := 0; y < 32; y++ {
							for _, v := range a.Row3(me, x, y) {
								sum += v
							}
						}
					}
				} else {
					dom.ForEach(func(p upcxx.Point) { sum += a.Get(me, p) })
				}
				_ = sum
			}
		})
	}
	b.Run("unstrided-rows", func(b *testing.B) { run(b, true) })
	b.Run("point-indexed", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationFenceVsEvents compares handle-less async_copy_fence
// synchronization with per-event synchronization for a LULESH-style
// multi-put exchange (paper §V-E).
func BenchmarkAblationFenceVsEvents(b *testing.B) {
	run := func(b *testing.B, useEvents bool) {
		for i := 0; i < b.N; i++ {
			upcxx.Run(upcxx.Config{Ranks: 8}, func(me *upcxx.Rank) {
				buf := upcxx.Allocate[float64](me, me.ID(), 64*8)
				all := upcxx.TeamAllGather(me.World(), buf)
				me.Barrier()
				src := make([]float64, 64)
				if useEvents {
					evs := make([]*upcxx.Event, me.Ranks())
					for r := range evs {
						evs[r] = upcxx.NewEvent()
						upcxx.WriteSliceAsync(me, all[r].Add(64*me.ID()), src, evs[r])
					}
					for _, ev := range evs {
						ev.Wait(me)
					}
				} else {
					for r := 0; r < me.Ranks(); r++ {
						upcxx.WriteSliceAsync(me, all[r].Add(64*me.ID()), src, nil)
					}
					upcxx.AsyncCopyFence(me)
				}
				me.Barrier()
			})
		}
	}
	b.Run("fence", func(b *testing.B) { run(b, false) })
	b.Run("events", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationEagerRendezvous measures the MPI baseline's protocol
// switch around the eager threshold.
func BenchmarkAblationEagerRendezvous(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"eager", sim.Local.EagerBytes - 256}, {"rendezvous", sim.Local.EagerBytes + 256}} {
		b.Run(sz.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Run(core.Config{Ranks: 2, SW: sim.SWMPI},
					func(me *core.Rank) {
						c := mpi.New(me)
						if me.ID() == 0 {
							c.Wait(c.Isend(1, 0, make([]byte, sz.n)))
						} else {
							c.Wait(c.Irecv(0, 0, make([]byte, sz.n)))
						}
					})
			}
		})
	}
}
