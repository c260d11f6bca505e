package harness

import (
	"bytes"
	"strings"
	"testing"
)

func report(points map[string]float64) Report {
	// key: "exp/series/ranks" with ranks fixed at 8 for brevity.
	byExp := map[string]map[string][]Point{}
	for k, v := range points {
		parts := strings.Split(k, "/")
		exp, series := parts[0], parts[1]
		if byExp[exp] == nil {
			byExp[exp] = map[string][]Point{}
		}
		byExp[exp][series] = append(byExp[exp][series], Point{Ranks: 8, Value: v})
	}
	var r Report
	r.Schema = Schema
	for exp, seriesMap := range byExp {
		res := Result{ID: exp}
		for name, pts := range seriesMap {
			res.Series = append(res.Series, Series{Name: name, Points: pts})
		}
		r.Results = append(r.Results, res)
	}
	return r
}

func TestDiffReportsWithinTolerance(t *testing.T) {
	base := report(map[string]float64{"fig4/UPC": 100, "fig4/UPC++": 200})
	cur := report(map[string]float64{"fig4/UPC": 110, "fig4/UPC++": 190})
	entries := DiffReports(base, cur, 0.25)
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if n := len(Failures(entries)); n != 0 {
		t.Fatalf("%d failures within tolerance: %+v", n, Failures(entries))
	}
}

func TestDiffReportsRegression(t *testing.T) {
	base := report(map[string]float64{"fig4/UPC": 100})
	cur := report(map[string]float64{"fig4/UPC": 160})
	entries := DiffReports(base, cur, 0.25)
	fails := Failures(entries)
	if len(fails) != 1 {
		t.Fatalf("60%% drift not flagged at 25%% tolerance: %+v", entries)
	}
	if got := fails[0].RelDrift; got < 0.37 || got > 0.38 {
		t.Errorf("RelDrift = %v, want 0.375", got)
	}
}

func TestDiffReportsMissingPoint(t *testing.T) {
	base := report(map[string]float64{"fig4/UPC": 100, "fig5/UPC++": 7})
	cur := report(map[string]float64{"fig4/UPC": 100})
	fails := Failures(DiffReports(base, cur, 0.25))
	if len(fails) != 1 || !fails[0].Missing {
		t.Fatalf("vanished baseline point not flagged: %+v", fails)
	}
}

func TestDiffReportsNewPointsIgnored(t *testing.T) {
	base := report(map[string]float64{"fig4/UPC": 100})
	cur := report(map[string]float64{"fig4/UPC": 100, "fig9/new": 1})
	if fails := Failures(DiffReports(base, cur, 0.25)); len(fails) != 0 {
		t.Fatalf("growth flagged as regression: %+v", fails)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	base := report(map[string]float64{"fig4/UPC": 0})
	cur := report(map[string]float64{"fig4/UPC": 0})
	if fails := Failures(DiffReports(base, cur, 0.25)); len(fails) != 0 {
		t.Fatalf("0 vs 0 flagged: %+v", fails)
	}
}

func TestRenderDiffCountsFailures(t *testing.T) {
	base := report(map[string]float64{"fig4/UPC": 100, "fig4/UPC++": 10})
	cur := report(map[string]float64{"fig4/UPC": 500, "fig4/UPC++": 10})
	entries := DiffReports(base, cur, 0.25)
	var buf bytes.Buffer
	if got := RenderDiff(&buf, entries, 0.25); got != 1 {
		t.Fatalf("RenderDiff returned %d failures, want 1", got)
	}
	out := buf.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "ok") {
		t.Fatalf("table missing statuses:\n%s", out)
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	if _, err := LoadReport("no-such-file.json"); err == nil {
		t.Error("LoadReport accepted a missing file")
	}
	// The committed baseline must load and carry the expected schema.
	r, err := LoadReport("../../../BENCH_upcxx.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if len(r.Results) == 0 {
		t.Fatal("committed baseline has no results")
	}
}
