package measure

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func ramp(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i)
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %d, want 0", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int64
	}{{1, 0.5, 0}, {10, 0.5, 5}, {11, 0.5, 5}, {1000, 0.99, 990}, {10, 1.0, 9}} {
		if got := Quantile(ramp(c.n), c.q); got != c.want {
			t.Errorf("Quantile(ramp(%d), %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// A tail is reported only with at least ten samples beyond it: p99 needs
// 1,100 samples, p999 11,000.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, false}, // rank 990, 9 beyond
		{1100, 0.99, true},  // rank 1089, 10 beyond
		{10000, 0.999, false},
		{11000, 0.999, true},
		{440, 0.99, false}, // rpc_storm: a few hundred epochs support no tail
		{0, 0.99, false},
	} {
		v, ok := Tail(ramp(c.n), c.q)
		if ok != c.ok {
			t.Errorf("Tail(%d samples, %v) ok=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if c.n > 0 && v != Quantile(ramp(c.n), c.q) {
			t.Errorf("Tail(%d samples, %v) value %d differs from Quantile", c.n, c.q, v)
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := Quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	q1, q3 = Quartiles([]float64{30, 10, 20})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of 10,20,30 = %v, %v; Python gives 10, 30", q1, q3)
	}
	if v[0] != 7 {
		t.Error("Quartiles reordered its input")
	}
}

// An epoch of 100,000 operations every 0.75 s against 2 s sub-windows:
// the third epoch straddles the boundary, so the first window closes at
// 2.25 s holding all three epochs and is rated over 2.25 s.
func TestWindowClosesAtFirstCompletionAfterBoundary(t *testing.T) {
	start := time.Unix(1000, 0)
	w := NewWindows(2, 2*time.Second, start)
	at := func(s float64) time.Time { return start.Add(time.Duration(s * float64(time.Second))) }
	for i, s := range []float64{0.75, 1.5} {
		if w.Add(at(s), 100000); w.Index() != 0 {
			t.Fatalf("window closed after epoch %d at %.2f s", i, s)
		}
	}
	w.Add(at(2.25), 100000)
	if w.Index() != 1 {
		t.Fatal("window still open after the epoch that crossed 2 s")
	}
	if got, want := w.Rates()[0], 300000/2.25; math.Abs(got-want) > 1e-6 {
		t.Errorf("first window rate %v, want %v (3 epochs over its actual 2.25 s)", got, want)
	}
	// The second window starts where the first closed, not at 2 s.
	w.Add(at(3.0), 100000)
	w.Add(at(3.75), 100000)
	if done := w.Add(at(4.24), 100000); done {
		t.Fatal("second window closed 1.99 s after it opened")
	}
	if done := w.Add(at(4.5), 100000); !done {
		t.Fatal("second window still open 2.25 s after it opened")
	}
	if got, want := w.Rates()[1], 400000/2.25; math.Abs(got-want) > 1e-6 {
		t.Errorf("second window rate %v, want %v", got, want)
	}
	// Stragglers after the last close change nothing.
	w.Add(at(9), 12345)
	if w.Ops() != 700000 || w.Elapsed() != 4500*time.Millisecond || len(w.Rates()) != 2 {
		t.Errorf("after stragglers: ops %d elapsed %v windows %d", w.Ops(), w.Elapsed(), len(w.Rates()))
	}
}

func TestSumRatesAddsClientsPerWindow(t *testing.T) {
	start := time.Unix(0, 0)
	a, b := NewWindows(2, time.Second, start), NewWindows(2, time.Second, start)
	for i := 1; i <= 2; i++ {
		a.Add(start.Add(time.Duration(i)*time.Second), 100)
		b.Add(start.Add(time.Duration(i)*time.Second), 50)
	}
	got := SumRates(a, b)
	if len(got) != 2 || got[0] != 150 || got[1] != 150 {
		t.Errorf("SumRates = %v, want [150 150]", got)
	}
}

// Self time is duration minus the union of the children's intervals
// clipped to the parent: overlap is subtracted once, overhang not at all.
func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // overhangs the parent
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{Name: "other-root", Start: 200, End: 260, Parent: -1},
	}
	self := SelfTimes(spans)
	want := []int64{50, 14, 30, 30, 6, 60} // parent: 100 - (10..50) - (90..100)
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestRecorderTracesOddWindowsOnly(t *testing.T) {
	tr := NewTracer()
	start := time.Now()
	rec := NewRecorder(4, time.Second, start, 16, tr.NewTrack(0))
	var traced []bool
	for i := 1; i <= 4; i++ {
		k := rec.Track()
		traced = append(traced, k != nil)
		t1 := start.Add(time.Duration(i) * time.Second)
		id := k.Begin("op", t1.Add(-time.Millisecond), -1, uint64(i)) // no-op on a nil track
		k.End(id, t1)
		rec.Op(KindPut, t1.Add(-time.Millisecond), t1, 1)
	}
	if want := []bool{false, true, false, true}; !equalBools(traced, want) {
		t.Errorf("traced windows %v, want %v", traced, want)
	}
	if n := len(tr.Tracks()[0].Spans); n != 2 {
		t.Errorf("%d spans recorded, want 2", n)
	}
	var nilRec *Recorder
	if nilRec.Track() != nil {
		t.Error("nil recorder handed out a track")
	}
	un, tc := SplitRates(rec.Win.Rates())
	if len(un) != 2 || len(tc) != 2 {
		t.Errorf("SplitRates gave %d untraced, %d traced", len(un), len(tc))
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChromeTraceAndSummary(t *testing.T) {
	tr := NewTracer()
	k := tr.NewTrack(3)
	base := time.Now()
	p := k.Begin("gate.put", base, -1, 7)
	c := k.Begin("http.roundtrip", base.Add(10*time.Microsecond), p, 7)
	k.End(c, base.Add(60*time.Microsecond))
	k.End(p, base.Add(100*time.Microsecond))

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
			Args struct {
				Req    uint64 `json:"req"`
				Parent string `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	child := doc.TraceEvents[1]
	if child.Name != "http.roundtrip" || child.Ph != "X" || child.Tid != 3 || child.Dur != 50 ||
		child.Args.Req != 7 || child.Args.Parent != "gate.put" {
		t.Errorf("child event %+v", child)
	}

	sum := tr.Summary()
	if len(sum) != 2 || sum[0].Name != "gate.put" || sum[0].Total != 100000 || sum[0].Self != 50000 {
		t.Errorf("summary %+v", sum)
	}
}

func TestTrackDropsBeyondCap(t *testing.T) {
	tr := NewTracer()
	k := tr.NewTrack(0)
	now := time.Now()
	for i := 0; i < MaxSpansPerTrack+5; i++ {
		k.End(k.Begin("op", now, -1, 0), now)
	}
	if len(k.Spans) != MaxSpansPerTrack || tr.Dropped() != 5 {
		t.Errorf("kept %d spans, dropped %d", len(k.Spans), tr.Dropped())
	}
}
