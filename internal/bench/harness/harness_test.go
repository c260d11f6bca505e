package harness

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"upcxx/internal/sim"
)

// fixture is a small hand-built result used by the renderer and
// round-trip tests so they stay deterministic and fast.
func fixture() Result {
	return Result{
		ID: "fig4", PaperRef: "§V-A Fig 4",
		Title:  "Fig 4 — Random Access latency per update, BG/Q (usec)",
		Metric: "latency_per_update", Unit: "usec",
		Quick:   true,
		Profile: sim.NewProfile(sim.Vesta, sim.SWUPC, sim.SWUPCXX),
		Series: []Series{
			{Name: "UPC", System: "upc", Points: []Point{
				{Ranks: 1, Value: 0.5, VirtualSeconds: 1e-4, WallSeconds: 2e-4,
					Counters: map[string]float64{"updates": 200, "gups": 0.002}},
				{Ranks: 2, Value: 2.0, VirtualSeconds: 4e-4, WallSeconds: 3e-4},
			}},
			{Name: "UPC++", System: "upcxx", Points: []Point{
				{Ranks: 1, Value: 1.0, VirtualSeconds: 2e-4, WallSeconds: 2e-4},
				{Ranks: 2, Value: 3.0, VirtualSeconds: 6e-4, WallSeconds: 3e-4},
			}},
		},
		SweepLabel: "cores", Format: "%.2f", Ratio: true,
	}
}

func TestLookup(t *testing.T) {
	cases := []struct {
		name string
		want string
		ok   bool
	}{
		{"fig4", "fig4", true},
		{"FIG5", "fig5", true},
		{" fig8 ", "fig8", true},
		{"tableiv", "tableiv", true},
		{"tab4", "tableiv", true},
		{"table4", "tableiv", true},
		{"all", "", false}, // pseudo-name, expanded by callers
		{"fig9", "", false},
	}
	for _, c := range cases {
		e, ok := Lookup(c.name)
		if ok != c.ok || (ok && e.ID != c.want) {
			t.Errorf("Lookup(%q) = %q, %v; want %q, %v", c.name, e.ID, ok, c.want, c.ok)
		}
	}
}

func TestRegistryCoversPaper(t *testing.T) {
	want := []string{"fig4", "tableiv", "fig5", "fig6", "fig7", "fig8"}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
		if e.Run == nil {
			t.Errorf("experiment %q has no run function", e.ID)
		}
		if e.PaperRef == "" {
			t.Errorf("experiment %q has no paper reference", e.ID)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry order = %v; want %v", got, want)
	}
	if names := Names(); names[len(names)-1] != "all" {
		t.Errorf("Names() = %v; want trailing \"all\"", names)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	orig := fixture()
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
	// The profile's topology must survive as its readable name, and an
	// unknown name must be rejected rather than coerced to flat.
	if !strings.Contains(string(b), `"topology": "torus5d"`) &&
		!strings.Contains(string(b), `"topology":"torus5d"`) {
		t.Errorf("topology not serialized by name: %s", b)
	}
	var topo sim.Topology
	if err := json.Unmarshal([]byte(`"fat_tree"`), &topo); err == nil {
		t.Error("unknown topology name accepted")
	}
}

func TestEmptyResultTable(t *testing.T) {
	r := Result{Title: "empty", SweepLabel: "cores"}
	if tab := r.Table(); len(tab.Rows) != 0 || len(tab.Headers) != 1 {
		t.Errorf("empty result table = %+v", tab)
	}
}

func TestReportJSONRenderer(t *testing.T) {
	rep := NewReport(Options{Quick: true}, []Result{fixture()})
	var sb strings.Builder
	if err := (JSONRenderer{Indent: true}).Render(&sb, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("renderer emitted invalid JSON: %v", err)
	}
	if back.Schema != Schema {
		t.Errorf("schema = %q; want %q", back.Schema, Schema)
	}
	if back.GoVersion == "" || back.GOOS == "" || back.GOARCH == "" {
		t.Errorf("missing host metadata: %+v", back)
	}
	if len(back.Results) != 1 || !reflect.DeepEqual(back.Results[0], fixture()) {
		t.Errorf("results did not survive the renderer")
	}
}

const goldenText = `
== Fig 4 — Random Access latency per update, BG/Q (usec) ==
cores  UPC   UPC++  UPC++/UPC
-----  ----  -----  ---------
1      0.50  1.00   2.00
2      2.00  3.00   1.50
`

const goldenMarkdown = `
**Fig 4 — Random Access latency per update, BG/Q (usec)**

| cores | UPC | UPC++ | UPC++/UPC |
| --- | --- | --- | --- |
| 1 | 0.50 | 1.00 | 2.00 |
| 2 | 2.00 | 3.00 | 1.50 |
`

func TestRendererGolden(t *testing.T) {
	rep := Report{Results: []Result{fixture()}}
	cases := []struct {
		name   string
		r      Renderer
		golden string
	}{
		{"text", TextRenderer{}, goldenText},
		{"markdown", MarkdownRenderer{}, goldenMarkdown},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			if err := c.r.Render(&sb, rep); err != nil {
				t.Fatal(err)
			}
			if sb.String() != c.golden {
				t.Errorf("golden mismatch:\n got %q\nwant %q", sb.String(), c.golden)
			}
		})
	}
}

func TestRendererFor(t *testing.T) {
	for name, want := range map[string]Renderer{
		"":         TextRenderer{},
		"text":     TextRenderer{},
		"markdown": MarkdownRenderer{},
		"md":       MarkdownRenderer{},
		"json":     JSONRenderer{Indent: true},
	} {
		got, err := RendererFor(name)
		if err != nil || got != want {
			t.Errorf("RendererFor(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := RendererFor("csv"); err == nil {
		t.Error("RendererFor(\"csv\") succeeded; want error")
	}
}

// TestRunTableIVQuick runs the smallest real experiment end to end and
// checks the typed result carries the sweep, counters and profile the
// artifact schema promises.
func TestRunTableIVQuick(t *testing.T) {
	e, ok := Lookup("tableiv")
	if !ok {
		t.Fatal("tableiv not registered")
	}
	r := e.Run(Options{Quick: true})
	if r.ID != "tableiv" || r.Unit != "GUPS" {
		t.Fatalf("unexpected identity: %+v", r)
	}
	if got, want := r.Ranks(), []int{16, 128}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quick sweep = %v; want %v", got, want)
	}
	if r.Profile.Machine.Name != "vesta" || len(r.Profile.Software) != 2 {
		t.Fatalf("profile not recorded: %+v", r.Profile)
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Value <= 0 || p.VirtualSeconds <= 0 || p.WallSeconds <= 0 {
				t.Errorf("series %q point %+v missing measurements", s.Name, p)
			}
			if p.Counters["updates_per_sec"] <= 0 {
				t.Errorf("series %q point at %d ranks missing updates_per_sec counter", s.Name, p.Ranks)
			}
		}
	}
}
