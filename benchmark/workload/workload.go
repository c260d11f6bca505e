// Package workload holds the five end-to-end workloads and the layer
// probes. Each workload builds its mesh in this process over the
// loopback interface, warms it with a fixed number of operations,
// measures a closed loop for the requested window and checks every
// result it gets back. All program symbols come from package sut.
package workload

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"upcxx/benchmark/measure"
	"upcxx/benchmark/sut"
)

// SubWindows is how many sub-windows a measured window is split into;
// ops_per_s is the median over them.
const SubWindows = 10

// Params is one run's input.
type Params struct {
	Seed   int64
	Window time.Duration // the whole measured window
	// Quick shrinks preload and warm-up tenfold for the smoke test; its
	// numbers are never reported.
	Quick bool
	// Tracer, when set, makes this the traced run: spans are recorded in
	// odd sub-windows.
	Tracer *measure.Tracer
	// T0 is when this process started; setup_s counts from it.
	T0 time.Time
}

// scaled returns n, or a tenth of it (at least floor) in a quick run.
func (p Params) scaled(n, floor int) int {
	if !p.Quick {
		return n
	}
	return max(n/10, floor)
}

// Spec names a workload and records why it is in the suite.
type Spec struct {
	Name string
	Why  string
	Run  func(Params) *Result
}

// All lists the suite in the order it runs.
var All = []Spec{
	{"gate_kv", "HTTP PUT/GET through the gateway to the K=2 DHT: the only workload where svc does most of the work and agg sees a 1-2 op trickle", GateKV},
	{"rpc_storm", "Finish epochs of 50k aggregated RPCs per rank: CPU-bound in core dispatch, rpc codec and agg; transport nearly idle", RPCStorm},
	{"onesided_small", "blocking 8-byte Write/Read/AtomicXor round trips: per-message cost of gasnet wire and transport, agg bypassed", OnesidedSmall},
	{"onesided_bulk", "32 KiB WriteSlice/ReadSlice round trips: same layers as onesided_small but a third of each op is per-byte cost", OnesidedBulk},
	{"coll_hier", "Barrier + AllGather on 2 hosts x 2 ranks: the only workload through shm rings, leader dissemination and team collectives", CollHier},
}

// Find returns the named workload.
func Find(name string) (Spec, bool) {
	for _, s := range All {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Result is what one run measured.
type Result struct {
	// Attempted counts every operation whose result was checked (warm-up,
	// window and post-run verification); Failed those that came back
	// wrong, refused, timed out or lost.
	Attempted, Failed int64

	SetupS  float64
	Rates   []float64                      // operations per second, per sub-window
	Lat     [measure.KindOther + 1][]int64 // window latencies by kind, ns, ascending
	All     []int64                        // all kinds merged, ascending
	Ops     int64                          // operations in the closed sub-windows
	Elapsed time.Duration                  // time the closed sub-windows cover
	CPU     time.Duration                  // process user+sys CPU over the window

	Mallocs, AllocBytes uint64 // heap allocations over the window
	GCPause             time.Duration

	// Counters are the program's own counters summed over the workload's
	// ranks for the whole life of its mesh (core.Stats.Counters), plus
	// the service plane's where there is one.
	Counters map[string]float64
}

func (r *Result) fail(format string, args ...any) {
	r.Failed++
	logFailure(r.Failed, format, args...)
}

// logFailure describes the first few failed operations of a run.
func logFailure(nth int64, format string, args ...any) {
	if nth <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED OP: "+format+"\n", args...)
	}
}

// window brackets the measured stretch of a run.
type window struct {
	p     Params
	start time.Time
	cpu0  time.Duration
	ms0   runtime.MemStats
}

// beginWindow ends set-up: it collects the garbage set-up left, so the
// window starts from the same heap state every run, reads the resource
// baselines and stamps setup_s.
func (p Params) beginWindow(res *Result) *window {
	runtime.GC()
	w := &window{p: p}
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = measure.CPUTime()
	w.start = time.Now()
	res.SetupS = w.start.Sub(p.T0).Seconds()
	return w
}

// recorder returns a client's recorder for this window; hint is the
// number of operations the client expects to complete.
func (w *window) recorder(hint, tid int) *measure.Recorder {
	return measure.NewRecorder(SubWindows, w.p.Window/SubWindows, w.start, hint, w.p.Tracer.NewTrack(tid))
}

// end closes the window over the given clients' recorders.
func (w *window) end(res *Result, recs ...*measure.Recorder) {
	res.CPU = measure.CPUTime() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Mallocs = ms.Mallocs - w.ms0.Mallocs
	res.AllocBytes = ms.TotalAlloc - w.ms0.TotalAlloc
	res.GCPause = time.Duration(ms.PauseTotalNs - w.ms0.PauseTotalNs)

	wins := make([]*measure.Windows, len(recs))
	for i, r := range recs {
		wins[i] = r.Win
		res.Ops += r.Win.Ops()
		res.Elapsed = max(res.Elapsed, r.Win.Elapsed())
	}
	res.Rates = measure.SumRates(wins...)
	for k := range res.Lat {
		sets := make([][]int64, len(recs))
		for i, r := range recs {
			sets[i] = r.Lat[k]
		}
		res.Lat[k] = measure.SortedCopy(sets...)
	}
	res.All = measure.SortedCopy(res.Lat[:]...)
}

// foldCounters sums the ranks' program counters into res.
func (res *Result) foldCounters(stats []sut.Stats) {
	if res.Counters == nil {
		res.Counters = map[string]float64{}
	}
	for _, st := range stats {
		for k, v := range st.Counters {
			res.Counters[k] += v
		}
	}
	res.Counters["ranks"] = float64(len(stats))
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// EndToEnd returns the four user-visible metrics.
func (r *Result) EndToEnd() map[string]Metric {
	m := map[string]Metric{"setup_s": {r.SetupS, "s"}}
	if r.Ops > 0 {
		m["ops_per_s"] = Metric{measure.Median(r.Rates), "1/s"}
		m["p50_us"] = Metric{float64(measure.Quantile(r.All, 0.5)) / 1e3, "us"}
		m["cpu_us_per_op"] = Metric{float64(r.CPU.Microseconds()) / float64(r.Ops), "us"}
	}
	return m
}

// ClientView returns the benchmark's own per-run view: latency by kind,
// tails where the sample supports them (0 where it does not), how far
// the sub-windows disagreed, memory and tracing cost.
func (r *Result) ClientView() map[string]Metric {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	kindP50 := func(k int) float64 {
		if len(r.Lat[k]) == 0 { // a workload with one kind of call
			return us(measure.Quantile(r.All, 0.5))
		}
		return us(measure.Quantile(r.Lat[k], 0.5))
	}
	tail := func(q float64) float64 {
		v, ok := measure.Tail(r.All, q)
		if !ok {
			return 0
		}
		return us(v)
	}
	m := map[string]Metric{
		"client.put_p50_us": {kindP50(measure.KindPut), "us"},
		"client.get_p50_us": {kindP50(measure.KindGet), "us"},
		"client.p99_us":     {tail(0.99), "us"},
		"client.p999_us":    {tail(0.999), "us"},
		"proc.peak_rss_mb":  {measure.PeakRSSMB(), "MiB"},
		"proc.gc_pause_ms":  {float64(r.GCPause.Microseconds()) / 1e3, "ms"},
	}
	if len(r.Rates) > 0 {
		m["client.window_spread"] = Metric{(slices.Max(r.Rates) - slices.Min(r.Rates)) / measure.Median(r.Rates), "frac"}
		untraced, traced := measure.SplitRates(r.Rates)
		m["obs.trace_overhead_frac"] = Metric{1 - measure.Median(traced)/measure.Median(untraced), "frac"}
	}
	if r.Ops > 0 {
		m["frames.allocs_per_op"] = Metric{float64(r.Mallocs) / float64(r.Ops), "count"}
		m["frames.bytes_per_op"] = Metric{float64(r.AllocBytes) / float64(r.Ops), "B"}
	}
	c := r.Counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	flushes := c["agg_flush_maxops"] + c["agg_flush_maxbytes"] + c["agg_flush_maxage"] +
		c["agg_flush_explicit"] + c["agg_flush_barrier"]
	m["agg.ops_per_batch"] = Metric{ratio(c["agg_ops"], c["agg_batches"]), "count"}
	m["agg.maxops_avg"] = Metric{ratio(c["agg_maxops_avg"], c["ranks"]), "count"}
	m["agg.flush_age_frac"] = Metric{ratio(c["agg_flush_maxage"], flushes), "frac"}
	m["svc.rejected_frac"] = Metric{ratio(c["svc.rejected"], c["svc.rejected"]+c["svc.admitted"]), "frac"}
	m["svc.errs_5xx_frac"] = Metric{ratio(c["client.5xx"], c["client.requests"]), "frac"}
	return m
}

// mix64 is the splitmix64 finalizer: the benchmark's value generator.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
