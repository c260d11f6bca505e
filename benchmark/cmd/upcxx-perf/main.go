// Command upcxx-perf is the repository's performance contract: five
// wall-clock workloads over the loopback interface, four end-to-end
// metrics each, and a per-layer budget measured from outside in a
// separate traced run. See ../../README.md.
//
//	upcxx-perf -workload W -seed N -seconds S -trace 0|1   one run; last stdout line is the result JSON
//	upcxx-perf                                             every workload, untraced then traced; every metric by name and unit
//	upcxx-perf -aa N                                       N untraced sets on this build; medians, quartiles, agreement (markdown)
//	upcxx-perf -contract                                   print BENCHMARK.json as the code defines it
//
// A -workload run measures in the process it was started as, with the
// CPUs kept awake around it (awake_linux.go), then re-executes this
// binary for two short runs whose set-up times it takes the median
// with. The suite and -aa re-execute it once per run, so every workload
// gets a fresh process and heap and pool state never leak from one to
// the next.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"

	"upcxx/benchmark/measure"
	"upcxx/benchmark/workload"
)

const (
	defaultSeed    = 20140519 // the paper's conference date; any seed works
	defaultSeconds = 20
	// runDeadline ends a workload run that hangs; the driver allows 180 s.
	runDeadline = 170 * time.Second
	// setupWindow is the window of a run made only for its setup_s.
	setupWindow = 0.2
)

// report is the last line a -workload run prints.
type report struct {
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Metrics   map[string]workload.Metric `json:"metrics"`
}

type options struct {
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	traceFile string
	setups    int
}

func main() {
	started := time.Now()
	var o options
	name := flag.String("workload", "", "run this one workload and print the result JSON as the last line")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload input seed")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured window in seconds (split into ten sub-windows)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: 1 s window, a tenth of the set-up; never use its numbers")
	flag.StringVar(&o.traceFile, "trace-file", "", "with -workload and -trace 1: write the spans as Chrome trace JSON to this file")
	flag.IntVar(&o.setups, "setups", 3, "an untraced run reports the median setup_s of this many set-ups; the extra ones are runs of their own with a 0.2 s window")
	aa := flag.Int("aa", 0, "run the untraced suite this many times and print the A/A table")
	contract := flag.Bool("contract", false, "print BENCHMARK.json and exit")
	spin := flag.Int("spin", -1, "internal: keep this CPU awake with a SCHED_IDLE busy loop")
	flag.Parse()
	if o.quick {
		o.seconds = 1
	}

	switch {
	case *spin >= 0:
		os.Exit(spinMain(*spin))
	case *contract:
		os.Stdout.Write(benchmarkJSON())
	case *aa > 0:
		os.Exit(runAA(*aa, o))
	case *name != "":
		os.Exit(runWorkload(*name, o, started))
	default:
		os.Exit(runSuite(o))
	}
}

// procs is the GOMAXPROCS every workload runs with: two ranks (or two
// HTTP workers) on at most two processors, the load this suite is sized
// for, whatever the host offers.
func procs() int { return min(2, runtime.NumCPU()) }

func hostFacts() string {
	return fmt.Sprintf("nproc=%d go=%s GOMAXPROCS=%d default-seed=%d", runtime.NumCPU(), runtime.Version(), procs(), defaultSeed)
}

// ---- one workload, in this process ----

func runWorkload(name string, o options, started time.Time) int {
	spec, ok := workload.Find(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "upcxx-perf: unknown workload %q\n", name)
		return 2
	}
	runtime.GOMAXPROCS(procs())
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "upcxx-perf: %s still running after %v; giving up\n", name, runDeadline)
		os.Exit(2)
	})
	p := workload.Params{
		Seed: o.seed, Window: time.Duration(o.seconds * float64(time.Second)),
		Quick: o.quick, T0: started,
	}
	if o.trace == 1 {
		p.Tracer = measure.NewTracer()
	}
	awake := keepAwake()
	res := spec.Run(p)
	awake()
	fmt.Fprintf(os.Stderr, "# %s seed=%d %s\n# set-up %.3f s; %d ops in %.2f s; sub-window ops/s: %.0f\n",
		name, o.seed, hostFacts(), res.SetupS, res.Ops, res.Elapsed.Seconds(), res.Rates)

	rep := report{Attempted: res.Attempted, Failed: res.Failed}
	defs, got := workload.EndToEndDefs, res.EndToEnd()
	if p.Tracer == nil {
		// One set-up is mostly a warm-up of a second, and a second's
		// throughput wanders by a tenth: report the median of several,
		// the others taken by short runs in processes of their own.
		setups := []float64{res.SetupS}
		short := o
		short.seconds, short.setups = setupWindow, 1
		for len(setups) < o.setups {
			r, err := spawn(name, short)
			if err != nil {
				fmt.Fprintln(os.Stderr, "upcxx-perf: set-up run:", err)
				rep.Failed++
				break
			}
			rep.Attempted += r.Attempted
			rep.Failed += r.Failed
			setups = append(setups, r.Metrics["setup_s"].Value)
		}
		got["setup_s"] = workload.Metric{Value: measure.Median(setups), Unit: "s"}
	} else {
		var errs []error
		defs = workload.LayerDefs
		got, errs = res.PerLayer(name, o.quick)
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "upcxx-perf: probe failed:", err)
			rep.Failed++
		}
		printSpans(name, p.Tracer)
		if o.traceFile != "" {
			if err := writeTrace(o.traceFile, p.Tracer); err != nil {
				fmt.Fprintln(os.Stderr, "upcxx-perf:", err)
				rep.Failed++
			}
		}
	}
	rep.Metrics = map[string]workload.Metric{}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			// A probe of a layer this workload does not use runs in
			// another workload's traced run and reads 0 here; every
			// workload owes every end-to-end metric.
			if p.Tracer == nil {
				fmt.Fprintf(os.Stderr, "upcxx-perf: %s did not report %s\n", name, d.Name)
				rep.Failed++
			}
			m = workload.Metric{Unit: d.Unit}
		}
		rep.Metrics[d.Name] = m
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	line, _ := json.Marshal(rep)
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func printSpans(name string, tr *measure.Tracer) {
	fmt.Fprintf(os.Stderr, "# %s spans (benchmark side, traced sub-windows only; %d dropped)\n", name, tr.Dropped())
	fmt.Fprintf(os.Stderr, "# %-22s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range tr.Summary() {
		fmt.Fprintf(os.Stderr, "# %-22s %10d %14.3f %14.3f\n", t.Name, t.Count, float64(t.Total)/1e6, float64(t.Self)/1e6)
	}
}

func writeTrace(path string, tr *measure.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// ---- suite and A/A: one fresh process per run ----

// spawn re-executes this binary for one -workload run and parses the
// report it prints. The child's stderr passes through; a run with
// failed operations exits 1 but still reports.
func spawn(name string, o options) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
		"-setups", strconv.Itoa(o.setups)}
	if o.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("%s printed no report (%v): %w", name, runErr, err)
	}
	return rep, nil
}

// runSuite runs every workload untraced and then traced and prints
// every metric by name and unit.
func runSuite(o options) int {
	fmt.Printf("# upcxx-perf suite: seed=%d seconds=%g %s\n", o.seed, o.seconds, hostFacts())
	bad := 0
	for _, spec := range workload.All {
		for trace, defs := range [][]workload.Def{workload.EndToEndDefs, workload.LayerDefs} {
			o.trace = trace
			rep, err := spawn(spec.Name, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "upcxx-perf:", err)
				bad++
				continue
			}
			for _, d := range defs {
				fmt.Printf("%-15s %-30s %16.4f %s\n", spec.Name, d.Name, rep.Metrics[d.Name].Value, d.Unit)
			}
			prefix := [2]string{"", "traced."}[trace]
			fmt.Printf("%-15s %-30s %16d count\n", spec.Name, prefix+"attempted", rep.Attempted)
			fmt.Printf("%-15s %-30s %16d count\n", spec.Name, prefix+"failed", rep.Failed)
			if !rep.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("# FAILED: %d runs had failed operations or did not finish\n", bad)
		return 1
	}
	return 0
}

// runAA runs the untraced suite sets times on this build and prints, per
// workload and end-to-end metric, the median, the quartiles, their
// distance as a share of the median, and whether the two most distant
// sets still agree within the metric's bound.
func runAA(sets int, o options) int {
	o.trace = 0
	vals := map[string][]float64{} // "workload metric" -> one value per set
	bad := 0
	for s := 0; s < sets; s++ {
		o.seed = defaultSeed + int64(s) // the driver varies the seed between runs too
		for _, spec := range workload.All {
			rep, err := spawn(spec.Name, o)
			if err != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "upcxx-perf: set %d %s: failed=%d err=%v\n", s, spec.Name, rep.Failed, err)
				bad++
				continue
			}
			for _, d := range workload.EndToEndDefs {
				k := spec.Name + " " + d.Name
				vals[k] = append(vals[k], rep.Metrics[d.Name].Value)
			}
		}
	}
	fmt.Printf("# A/A: %d sets of the untraced suite on one build\n\n", sets)
	fmt.Printf("seeds %d..%d, %g s windows, %s\n\n", defaultSeed, defaultSeed+int64(sets)-1, o.seconds, hostFacts())
	fmt.Println("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/min | bound | all pairs agree |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	for _, spec := range workload.All {
		for _, d := range workload.EndToEndDefs {
			v := vals[spec.Name+" "+d.Name]
			if len(v) < 2 {
				continue
			}
			q1, q3 := measure.Quartiles(v)
			med := measure.Median(v)
			worst := (slices.Max(v) - slices.Min(v)) / slices.Min(v)
			agree := "yes"
			if worst > d.Bound {
				agree = "NO"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.4f | %.4f | %.4f | %.2f | %s |\n",
				spec.Name, d.Name, d.Unit, med, q1, q3, (q3-q1)/med, worst, d.Bound, agree)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// ---- BENCHMARK.json ----

// benchmarkJSON renders the contract file from the tables the code
// runs on, so the two cannot drift (a test compares it with the
// committed file).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, s := range workload.All {
		doc.Workloads = append(doc.Workloads, wl{s.Name, s.Why})
	}
	for _, d := range workload.EndToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range workload.LayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n')
}
