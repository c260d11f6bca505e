// Command upcxx-bench regenerates the tables and figures of the paper's
// evaluation section (§V). Each experiment runs the real benchmark code
// over the virtual-time machine model at the paper's rank counts and
// emits the corresponding series — as aligned text, markdown, or a
// machine-readable JSON report (the BENCH_*.json perf-trajectory
// artifact).
//
// Usage:
//
//	upcxx-bench -list                            # the experiment registry
//	upcxx-bench -exp all                         # every table and figure (full scale)
//	upcxx-bench -exp fig4 -quick                 # one experiment, reduced sweep
//	upcxx-bench -exp fig8 -markdown              # emit a markdown table
//	upcxx-bench -exp all -quick -json -out BENCH_upcxx.json
//	upcxx-bench -quick -diff BENCH_upcxx.json    # regression gate vs the baseline
//
// With -diff the sweep is regenerated and every headline metric point is
// compared against the given baseline artifact within -tol relative
// drift; any violation (or vanished point) exits non-zero. This is the
// CI bench-regression gate.
//
// Experiments: fig4, tableiv (alias tab4), fig5, fig6, fig7, fig8, all —
// run -list for descriptions. Every one runs in virtual time; wall-clock
// performance is measured by the benchmark/ module (upcxx-perf) and the
// layer benchmarks (go test -bench) instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"upcxx/internal/bench/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(harness.Names(), ", "))
	list := flag.Bool("list", false, "list the experiment registry (ids, aliases, titles) and exit")
	quick := flag.Bool("quick", false, "reduced sweeps for fast runs")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON")
	out := flag.String("out", "", "write output to this file instead of stdout")
	diff := flag.String("diff", "", "regenerate the sweep and diff headline metrics against this baseline JSON artifact")
	tol := flag.Float64("tol", harness.DefaultTolerance, "relative drift tolerance for -diff")
	flag.Parse()

	if *list {
		listExperiments(os.Stdout)
		return
	}

	if *markdown && *jsonOut {
		fmt.Fprintln(os.Stderr, "-markdown and -json are mutually exclusive")
		os.Exit(2)
	}
	format := "text"
	if *markdown {
		format = "markdown"
	}
	if *jsonOut {
		format = "json"
	}
	renderer, err := harness.RendererFor(format)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var exps []harness.Experiment
	if strings.EqualFold(*exp, "all") {
		exps = harness.Experiments()
	} else {
		e, ok := harness.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n",
				*exp, strings.Join(harness.Names(), ", "))
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}

	o := harness.Options{Quick: *quick}

	if *diff != "" {
		baseline, err := harness.LoadReport(*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Compare only the experiments being regenerated, so
		// `-exp fig4 -diff` checks fig4 without flagging the rest of the
		// baseline as missing.
		selected := map[string]bool{}
		for _, e := range exps {
			selected[e.ID] = true
		}
		var kept []harness.Result
		for _, r := range baseline.Results {
			if selected[r.ID] {
				kept = append(kept, r)
			}
		}
		baseline.Results = kept
		var results []harness.Result
		for _, e := range exps {
			results = append(results, e.Run(o))
		}
		entries := harness.DiffReports(baseline, harness.NewReport(o, results), *tol)
		if len(entries) == 0 {
			fmt.Fprintf(os.Stderr, "no comparable points between %s and the regenerated sweep\n", *diff)
			os.Exit(1)
		}
		failures := harness.RenderDiff(os.Stdout, entries, *tol)
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "upcxx-bench: %d of %d points regressed beyond %.0f%% vs %s\n",
				failures, len(entries), *tol*100, *diff)
			os.Exit(1)
		}
		fmt.Printf("all %d points within tolerance of %s\n", len(entries), *diff)
		return
	}

	// Text/markdown on stdout stream experiment by experiment (the full
	// sweeps run minutes); JSON and file output collect the whole report.
	stream := *out == "" && format != "json"
	var results []harness.Result
	for _, e := range exps {
		r := e.Run(o)
		if stream {
			if err := renderer.Render(os.Stdout, harness.Report{Results: []harness.Result{r}}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		results = append(results, r)
	}
	if stream {
		return
	}

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w = f
	}
	err = renderer.Render(w, harness.NewReport(o, results))
	if f != nil {
		// Surface close-time write errors: a truncated artifact must
		// not exit 0.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// listExperiments prints the experiment registry, one line per
// experiment, mirroring upcxx-run's program-registry printout.
func listExperiments(w io.Writer) {
	for _, e := range harness.Experiments() {
		name := e.ID
		if len(e.Aliases) > 0 {
			name += " (" + strings.Join(e.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "%-22s [%s] %s\n", name, e.PaperRef, e.Title)
	}
}
