package harness

import (
	"fmt"
	"testing"
)

// drifters are the quick-sweep points that still wander by a few
// percent run to run: Fig 5 at 24-192 ranks (both systems) and Fig 8's
// MPI series. Their modeled time depends on the real-time order in
// which messages are dequeued; ROADMAP item 1 is the search for why.
// They are held to DefaultTolerance; every other point must reproduce
// the committed baseline bit for bit.
var drifters = map[string]bool{
	"fig5/Titanium/24": true, "fig5/Titanium/48": true, "fig5/Titanium/96": true, "fig5/Titanium/192": true,
	"fig5/UPC++/24": true, "fig5/UPC++/48": true, "fig5/UPC++/96": true, "fig5/UPC++/192": true,
	"fig8/MPI/8": true, "fig8/MPI/27": true, "fig8/MPI/64": true,
}

// TestPaperPointsExact regenerates the quick sweep in process and holds
// it against BENCH_upcxx.json: 51 points exactly, the 11 drifters
// within DefaultTolerance. A change to how the model is charged that
// moves a figure fails here, not only a change large enough to cross
// the -diff gate's tolerance.
func TestPaperPointsExact(t *testing.T) {
	baseline, err := LoadReport("../../../BENCH_upcxx.json")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true}
	var results []Result
	for _, e := range Experiments() {
		results = append(results, e.Run(o))
	}
	exact, drifted := 0, 0
	for _, e := range DiffReports(baseline, NewReport(o, results), 0) {
		name := fmt.Sprintf("%s/%s/%d", e.Experiment, e.Series, e.Ranks)
		switch {
		case e.Missing:
			t.Errorf("%s: missing from the regenerated sweep", name)
		case drifters[name]:
			drifted++
			if e.RelDrift > DefaultTolerance {
				t.Errorf("%s: %v, baseline %v (drift %.3f > %.2f)", name, e.Current, e.Baseline, e.RelDrift, DefaultTolerance)
			}
		default:
			exact++
			if !e.OK {
				t.Errorf("%s: %v, baseline %v: want bit-identical", name, e.Current, e.Baseline)
			}
		}
	}
	if exact != 51 || drifted != len(drifters) {
		t.Errorf("compared %d exact and %d drifting points, want 51 and %d", exact, drifted, len(drifters))
	}
}
