package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Baseline regression checking: `upcxx-bench -diff BENCH_upcxx.json`
// regenerates the sweep and compares every headline metric point
// against the committed artifact, point by point, within a relative
// tolerance. Virtual-time metrics are model-driven but not perfectly
// deterministic — the modeled makespan of work-stealing and
// barrier-racing benchmarks depends on real goroutine interleavings —
// so the default tolerance absorbs scheduler noise while still
// catching step-change regressions.

// DefaultTolerance is the relative drift allowed per point.
const DefaultTolerance = 0.25

// DiffEntry is the comparison of one (experiment, series, ranks) point.
type DiffEntry struct {
	Experiment string  `json:"experiment"`
	Series     string  `json:"series"`
	Ranks      int     `json:"ranks"`
	Baseline   float64 `json:"baseline"`
	Current    float64 `json:"current"`
	RelDrift   float64 `json:"rel_drift"`
	// Missing marks a baseline point absent from the current report
	// (an experiment or sweep point silently disappeared).
	Missing bool `json:"missing,omitempty"`
	OK      bool `json:"ok"`
}

// relDrift returns |a-b| / max(|a|, |b|), 0 when both are 0.
func relDrift(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// DiffReports compares current against baseline: every metric point of
// the baseline must exist in current and agree within tol (relative).
// Points present only in current (new experiments, larger sweeps) are
// ignored — growth is not a regression. Entries come back in baseline
// order, failures included.
func DiffReports(baseline, current Report, tol float64) []DiffEntry {
	cur := map[string]float64{}
	key := func(exp, series string, ranks int) string {
		return fmt.Sprintf("%s\x00%s\x00%d", exp, series, ranks)
	}
	for _, r := range current.Results {
		for _, s := range r.Series {
			for _, p := range s.Points {
				cur[key(r.ID, s.Name, p.Ranks)] = p.Value
			}
		}
	}
	var out []DiffEntry
	for _, r := range baseline.Results {
		for _, s := range r.Series {
			for _, p := range s.Points {
				e := DiffEntry{
					Experiment: r.ID,
					Series:     s.Name,
					Ranks:      p.Ranks,
					Baseline:   p.Value,
				}
				v, ok := cur[key(r.ID, s.Name, p.Ranks)]
				if !ok {
					e.Missing = true
				} else {
					e.Current = v
					e.RelDrift = relDrift(p.Value, v)
					e.OK = e.RelDrift <= tol
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// Failures filters entries that violate the tolerance (or vanished).
func Failures(entries []DiffEntry) []DiffEntry {
	var bad []DiffEntry
	for _, e := range entries {
		if !e.OK {
			bad = append(bad, e)
		}
	}
	return bad
}

// LoadReport reads a JSON report artifact and validates its schema.
func LoadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("harness: parsing %s: %w", path, err)
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("harness: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return r, nil
}

// RenderDiff writes the comparison DiffReports made at tolerance tol as
// an aligned table, worst drift first within each experiment, and
// returns how many entries failed.
func RenderDiff(w io.Writer, entries []DiffEntry, tol float64) int {
	sorted := make([]DiffEntry, len(entries))
	copy(sorted, entries)
	// Key on the experiment's first appearance so the comparator is a
	// strict weak ordering (an "equal within, ordered across" predicate
	// breaks sort's contract and can interleave experiments).
	order := make(map[string]int)
	for _, e := range entries {
		if _, seen := order[e.Experiment]; !seen {
			order[e.Experiment] = len(order)
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if oi, oj := order[sorted[i].Experiment], order[sorted[j].Experiment]; oi != oj {
			return oi < oj
		}
		return sorted[i].RelDrift > sorted[j].RelDrift
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "experiment\tseries\tranks\tbaseline\tcurrent\tdrift\tstatus\n")
	failures := 0
	for _, e := range sorted {
		status := "ok"
		switch {
		case e.Missing:
			status = "MISSING"
			failures++
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t-\t-\t%s\n",
				e.Experiment, e.Series, e.Ranks, e.Baseline, status)
			continue
		case !e.OK:
			status = fmt.Sprintf("FAIL (> %.0f%%)", tol*100)
			failures++
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.1f%%\t%s\n",
			e.Experiment, e.Series, e.Ranks, e.Baseline, e.Current, e.RelDrift*100, status)
	}
	tw.Flush()
	return failures
}
