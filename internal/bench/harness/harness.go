// Package harness is the experiment subsystem that regenerates every
// table and figure of the paper's evaluation section (§V): Fig 4 /
// Table IV (Random Access), Fig 5 (Stencil), Fig 6 (Sample Sort), Fig 7
// (Embree-style ray tracing) and Fig 8 (LULESH).
//
// Experiments are registered by name in a Registry; each run function
// returns a typed Result — experiment id, paper reference, rank sweep as
// Series of Points, metric name and unit, per-point virtual-time and
// wall-time seconds plus raw counters, and the machine/software profile
// (sim.Profile) the numbers were produced under. Results render through
// pluggable Renderers (aligned text, markdown, JSON); the JSON form is
// the BENCH_*.json artifact schema that seeds the repo's performance
// trajectory. cmd/upcxx-bench is the CLI wrapper.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"upcxx/internal/sim"
)

// Schema identifies the JSON artifact format emitted by this package.
// Bump when Report/Result shapes change incompatibly.
const Schema = "upcxx-bench/v1"

// Options selects the sweep size. Quick selects reduced sweeps (fast
// laptop and CI runs); the full sweeps reach the paper's largest scales
// (8192, 6144, 12288 and 32768 ranks).
type Options struct {
	Quick bool
}

// Point is one measurement of a rank sweep: the headline metric value at
// one rank count, with the virtual-time seconds the LogGP model charged,
// the wall-clock seconds the run actually took on the host, and the
// benchmark's raw counters (updates/s, zones/s, keys sorted, ...).
type Point struct {
	Ranks          int                `json:"ranks"`
	Value          float64            `json:"value"`
	VirtualSeconds float64            `json:"virtual_seconds"`
	WallSeconds    float64            `json:"wall_seconds"`
	Counters       map[string]float64 `json:"counters,omitempty"`
}

// Series is one line of a figure — e.g. the "UPC++" curve of Fig 4 —
// tagged with the software profile (sim.SW name) that produced it.
type Series struct {
	Name   string  `json:"name"`
	System string  `json:"system,omitempty"`
	Points []Point `json:"points"`
}

// Result is the typed outcome of one experiment: identity (ID, PaperRef,
// Title), what was measured (Metric, Unit), how (Quick, Profile), and the
// measured Series. SweepLabel, Format and Ratio are rendering hints so
// the text/markdown renderers reproduce the paper's table shapes.
type Result struct {
	ID       string `json:"id"`
	PaperRef string `json:"paper_ref"`
	Title    string `json:"title"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	Quick    bool   `json:"quick"`

	// Profile records the machine and software halves of the performance
	// model in force for this run, making the artifact self-describing.
	Profile sim.Profile `json:"profile"`

	Series []Series `json:"series"`

	// SweepLabel names the x axis ("cores", "THREADS").
	SweepLabel string `json:"sweep_label"`
	// Format is the fmt verb for metric values in text renderers.
	Format string `json:"format,omitempty"`
	// Ratio asks text renderers for a derived last/first-series column
	// (the paper's UPC++/UPC style comparison); it is redundant in JSON.
	Ratio bool `json:"ratio,omitempty"`
}

// Ranks returns the sorted union of rank counts across the result's
// series (the x axis of the rendered table).
func (r Result) Ranks() []int {
	set := map[int]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			set[p.Ranks] = true
		}
	}
	ranks := make([]int, 0, len(set))
	for k := range set {
		ranks = append(ranks, k)
	}
	sort.Ints(ranks)
	return ranks
}

// point returns the series' point at the given rank count.
func (s Series) point(ranks int) (Point, bool) {
	for _, p := range s.Points {
		if p.Ranks == ranks {
			return p, true
		}
	}
	return Point{}, false
}

// Report is the top-level JSON artifact: schema tag, host metadata, and
// one Result per experiment run.
type Report struct {
	Schema    string   `json:"schema"`
	Generated string   `json:"generated,omitempty"` // RFC3339, UTC
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Quick     bool     `json:"quick"`
	Results   []Result `json:"results"`
}

// NewReport wraps results in a Report stamped with host metadata.
func NewReport(o Options, results []Result) Report {
	return Report{
		Schema:    Schema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     o.Quick,
		Results:   results,
	}
}

// RunFunc runs one experiment.
type RunFunc func(Options) Result

// Experiment is a registry entry: a named, paper-referenced experiment.
type Experiment struct {
	ID       string
	Aliases  []string
	PaperRef string
	Title    string
	Run      RunFunc
}

// registry holds the experiments in paper order (see experiments.go).
var registry = []Experiment{
	{ID: "fig4", PaperRef: "§V-A Fig 4",
		Title: "Random Access latency per update, BG/Q", Run: Fig4},
	{ID: "tableiv", Aliases: []string{"tab4", "table4"}, PaperRef: "§V-A Table IV",
		Title: "Random Access GUPS", Run: TableIV},
	{ID: "fig5", PaperRef: "§V-B Fig 5",
		Title: "Stencil weak scaling, Cray XC30", Run: Fig5},
	{ID: "fig6", PaperRef: "§V-C Fig 6",
		Title: "Sample Sort weak scaling, Cray XC30", Run: Fig6},
	{ID: "fig7", PaperRef: "§V-D Fig 7",
		Title: "Ray tracing strong scaling, Cray XC30", Run: Fig7},
	{ID: "fig8", PaperRef: "§V-E Fig 8",
		Title: "LULESH weak scaling, Cray XC30", Run: Fig8},
}

// Experiments returns the registered experiments in paper order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup resolves an experiment by id or alias (case-insensitive). The
// pseudo-name "all" is not an experiment; callers expand it via
// Experiments.
func Lookup(name string) (Experiment, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, e := range registry {
		if e.ID == name {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == name {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

// Names returns every experiment id plus "all", for usage strings.
func Names() []string {
	names := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		names = append(names, e.ID)
	}
	return append(names, "all")
}

// timed runs f and reports its wall-clock seconds alongside its result.
func timed[T any](f func() T) (T, float64) {
	t0 := time.Now()
	v := f()
	return v, time.Since(t0).Seconds()
}

func fv(format string, v float64) string {
	if format == "" {
		format = "%.3g"
	}
	return fmt.Sprintf(format, v)
}
