package harness

import (
	"upcxx/internal/bench/gups"
	"upcxx/internal/bench/lulesh"
	"upcxx/internal/bench/raytrace"
	"upcxx/internal/bench/samplesort"
	"upcxx/internal/bench/stencil"
	"upcxx/internal/sim"
)

func caps(o Options, quickMax int) func(int) bool {
	return func(p int) bool { return !o.Quick || p <= quickMax }
}

// gupsPoint runs one Random Access configuration and converts it to a
// harness Point carrying the given headline value selector.
func gupsPoint(p int, o Options, flavor string, value func(gups.Result) float64) Point {
	r, wall := timed(func() gups.Result {
		return gups.Run(gups.Params{Ranks: p, LogTableSize: logTableFor(p),
			UpdatesPerRank: updatesFor(p, o), Flavor: flavor,
			Machine: sim.Vesta, Virtual: true})
	})
	return Point{Ranks: p, Value: value(r), VirtualSeconds: r.Seconds,
		WallSeconds: wall, Counters: r.Counters()}
}

// Fig4 reproduces "Random Access latency per update on IBM BlueGene/Q":
// microseconds per update vs core count, UPC and UPC++ series.
func Fig4(o Options) Result {
	res := Result{
		ID: "fig4", PaperRef: "§V-A Fig 4",
		Title:  "Fig 4 — Random Access latency per update, BG/Q (usec)",
		Metric: "latency_per_update", Unit: "usec",
		Quick:   o.Quick,
		Profile: sim.NewProfile(sim.Vesta, sim.SWUPC, sim.SWUPCXX),
		Series: []Series{
			{Name: "UPC", System: "upc"},
			{Name: "UPC++", System: "upcxx"},
		},
		SweepLabel: "cores", Format: "%.2f", Ratio: true,
	}
	keep := caps(o, 256)
	lat := func(r gups.Result) float64 { return r.UsecPerUpdate }
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		if !keep(p) {
			continue
		}
		res.Series[0].Points = append(res.Series[0].Points, gupsPoint(p, o, "upc", lat))
		res.Series[1].Points = append(res.Series[1].Points, gupsPoint(p, o, "upcxx", lat))
	}
	return res
}

// TableIV reproduces "Random Access giga-updates-per-second".
func TableIV(o Options) Result {
	res := Result{
		ID: "tableiv", PaperRef: "§V-A Table IV",
		Title:  "Table IV — Random Access GUPS",
		Metric: "throughput", Unit: "GUPS",
		Quick:   o.Quick,
		Profile: sim.NewProfile(sim.Vesta, sim.SWUPC, sim.SWUPCXX),
		Series: []Series{
			{Name: "UPC", System: "upc"},
			{Name: "UPC++", System: "upcxx"},
		},
		SweepLabel: "THREADS", Format: "%.4f",
	}
	cores := []int{16, 128, 1024, 8192}
	if o.Quick {
		cores = []int{16, 128}
	}
	g := func(r gups.Result) float64 { return r.GUPS }
	for _, p := range cores {
		res.Series[0].Points = append(res.Series[0].Points, gupsPoint(p, o, "upc", g))
		res.Series[1].Points = append(res.Series[1].Points, gupsPoint(p, o, "upcxx", g))
	}
	return res
}

func updatesFor(p int, o Options) int {
	if o.Quick {
		return 200
	}
	switch {
	case p <= 64:
		return 2000
	case p <= 1024:
		return 800
	default:
		return 300
	}
}

func logTableFor(p int) int {
	// Keep the table comfortably larger than the rank count while
	// bounded in memory.
	l := 16
	for (1 << l) < 8*p {
		l++
	}
	return l
}

// Fig5 reproduces "Stencil weak scaling performance (GFLOPS) on Cray
// XC30": Titanium vs UPC++ over 24..6144 cores.
func Fig5(o Options) Result {
	res := Result{
		ID: "fig5", PaperRef: "§V-B Fig 5",
		Title:  "Fig 5 — Stencil weak scaling, Cray XC30 (GFLOPS)",
		Metric: "throughput", Unit: "GFLOPS",
		Quick:   o.Quick,
		Profile: sim.NewProfile(sim.Edison, sim.SWTitanium, sim.SWUPCXX),
		Series: []Series{
			{Name: "Titanium", System: "titanium"},
			{Name: "UPC++", System: "upcxx"},
		},
		SweepLabel: "cores", Format: "%.1f", Ratio: true,
	}
	keep := caps(o, 192)
	box, iters := 16, 4
	if o.Quick {
		box = 12
	}
	run := func(p int, flavor string) Point {
		r, wall := timed(func() stencil.Result {
			return stencil.Run(stencil.Params{Ranks: p, Box: box, Iters: iters,
				Flavor: flavor, Machine: sim.Edison, Virtual: true})
		})
		return Point{Ranks: p, Value: r.GFLOPS, VirtualSeconds: r.Seconds,
			WallSeconds: wall, Counters: r.Counters()}
	}
	for _, p := range []int{24, 48, 96, 192, 384, 768, 1536, 3072, 6144} {
		if !keep(p) {
			continue
		}
		res.Series[0].Points = append(res.Series[0].Points, run(p, "titanium"))
		res.Series[1].Points = append(res.Series[1].Points, run(p, "upcxx"))
	}
	return res
}

// Fig6 reproduces "Sample Sort weak scaling performance (TB/min) on Cray
// XC30": UPC vs UPC++ over 1..12288 cores.
func Fig6(o Options) Result {
	res := Result{
		ID: "fig6", PaperRef: "§V-C Fig 6",
		Title:  "Fig 6 — Sample Sort weak scaling, Cray XC30 (TB/min)",
		Metric: "throughput", Unit: "TB/min",
		Quick:   o.Quick,
		Profile: sim.NewProfile(sim.Edison, sim.SWUPC, sim.SWUPCXX),
		Series: []Series{
			{Name: "UPC", System: "upc"},
			{Name: "UPC++", System: "upcxx"},
		},
		SweepLabel: "cores", Format: "%.3g", Ratio: true,
	}
	keep := caps(o, 192)
	keys := 65536
	if o.Quick {
		keys = 8192
	}
	run := func(p, kp int, flavor string) Point {
		r, wall := timed(func() samplesort.Result {
			return samplesort.Run(samplesort.Params{Ranks: p, KeysPerRank: kp,
				Flavor: flavor, Machine: sim.Edison, Virtual: true})
		})
		return Point{Ranks: p, Value: r.TBPerMin, VirtualSeconds: r.Seconds,
			WallSeconds: wall, Counters: r.Counters()}
	}
	for _, p := range []int{1, 2, 4, 8, 12, 24, 48, 96, 192, 384, 768, 1536, 3072, 6144, 12288} {
		if !keep(p) {
			continue
		}
		kp := keys
		if p >= 3072 {
			kp = keys / 8 // bound total memory at the largest sweeps
		}
		res.Series[0].Points = append(res.Series[0].Points, run(p, kp, "upc"))
		res.Series[1].Points = append(res.Series[1].Points, run(p, kp, "upcxx"))
	}
	return res
}

// Fig7 reproduces "Embree ray tracing strong scaling performance on Cray
// XC30": speedup vs core count for the UPC++ renderer (one rank per
// 24-core node, node-local workers model the OpenMP threads).
func Fig7(o Options) Result {
	res := Result{
		ID: "fig7", PaperRef: "§V-D Fig 7",
		Title:  "Fig 7 — Ray tracing strong scaling, Cray XC30 (speedup)",
		Metric: "speedup", Unit: "x",
		Quick:   o.Quick,
		Profile: sim.NewProfile(sim.Edison, sim.SWUPCXX),
		Series: []Series{
			{Name: "speedup", System: "upcxx"},
			{Name: "ideal"},
		},
		SweepLabel: "cores", Format: "%.1f",
	}
	keep := caps(o, 192)
	w, h, spp := 192, 128, 16
	if o.Quick {
		w, h, spp = 96, 64, 4
	}
	var t24 float64
	for _, cores := range []int{24, 48, 96, 192, 384, 768, 1536, 3072, 6144} {
		if !keep(cores) {
			continue
		}
		r, wall := timed(func() raytrace.Result {
			return raytrace.Run(raytrace.Params{
				Ranks: cores / 24, Width: w, Height: h, SPP: spp, Tile: 4,
				Machine: sim.Edison, Virtual: true,
				// Model Embree-scale scene complexity (BVH over thousands
				// of primitives): the small verification scene is traced
				// for real, its bounce count charged at production weight.
				FlopsPerBounce: 1e6,
			})
		})
		if t24 == 0 {
			t24 = r.Seconds * 24
		}
		res.Series[0].Points = append(res.Series[0].Points, Point{
			Ranks: cores, Value: t24 / r.Seconds, VirtualSeconds: r.Seconds,
			WallSeconds: wall, Counters: r.Counters()})
		res.Series[1].Points = append(res.Series[1].Points, Point{
			Ranks: cores, Value: float64(cores)})
	}
	return res
}

// Fig8 reproduces "LULESH weak scaling performance on Cray XC30": FOM
// (zones/s) vs core count, MPI vs UPC++, perfect-cube process counts.
func Fig8(o Options) Result {
	res := Result{
		ID: "fig8", PaperRef: "§V-E Fig 8",
		Title:  "Fig 8 — LULESH weak scaling, Cray XC30 (FOM z/s)",
		Metric: "figure_of_merit", Unit: "zones/s",
		Quick:   o.Quick,
		Profile: sim.NewProfile(sim.Edison, sim.SWMPI, sim.SWUPCXX),
		Series: []Series{
			{Name: "MPI", System: "mpi"},
			{Name: "UPC++", System: "upcxx"},
		},
		SweepLabel: "cores", Format: "%.3g", Ratio: true,
	}
	sides := []int{4, 6, 8, 10, 16, 20, 24, 32} // 64..32768 ranks
	if o.Quick {
		sides = []int{2, 3, 4}
	}
	e, iters := 6, 4
	run := func(s int, flavor string) Point {
		// ComputeScale models production LULESH zone cost over the
		// proxy's smaller per-zone arithmetic (see lulesh.Params).
		r, wall := timed(func() lulesh.Result {
			return lulesh.Run(lulesh.Params{Side: s, E: e, Iters: iters,
				Flavor: flavor, Machine: sim.Edison, Virtual: true, ComputeScale: 16})
		})
		return Point{Ranks: s * s * s, Value: r.FOM, VirtualSeconds: r.Seconds,
			WallSeconds: wall, Counters: r.Counters()}
	}
	for _, s := range sides {
		res.Series[0].Points = append(res.Series[0].Points, run(s, "mpi"))
		res.Series[1].Points = append(res.Series[1].Points, run(s, "upcxx"))
	}
	return res
}
