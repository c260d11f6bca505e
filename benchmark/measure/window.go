package measure

import "time"

// Windows splits a measured run into n consecutive sub-windows and
// keeps each one's throughput, so the reported rate is a median that a
// neighbour's burst in one sub-window cannot move.
//
// A sub-window closes at the first completion at or after its nominal
// end and uses its actual length: work that straddles the boundary
// (one RPC epoch, one collective) is counted whole in the window it
// finishes in, over the time it really took, instead of being split or
// dropped. The next sub-window starts where the last one closed.
type Windows struct {
	n     int
	width time.Duration
	begin time.Time // start of the open sub-window
	first time.Time
	ops   int64 // completed in the open sub-window
	total int64
	rates []float64 // closed sub-windows, operations per second
}

// NewWindows starts n sub-windows of the given nominal width at start.
func NewWindows(n int, width time.Duration, start time.Time) *Windows {
	return &Windows{n: n, width: width, begin: start, first: start, rates: make([]float64, 0, n)}
}

// Add records ops operations that completed at t and reports whether
// every sub-window has closed. Completions after the last close are
// ignored, so stragglers of a collective stop decision are not counted.
func (w *Windows) Add(t time.Time, ops int64) (done bool) {
	if len(w.rates) == w.n {
		return true
	}
	w.ops += ops
	if d := t.Sub(w.begin); d >= w.width {
		w.rates = append(w.rates, float64(w.ops)/d.Seconds())
		w.total += w.ops
		w.ops = 0
		w.begin = t
	}
	return len(w.rates) == w.n
}

// Index is the open sub-window's index (n once all have closed).
func (w *Windows) Index() int { return len(w.rates) }

// Rates returns the closed sub-windows' operations per second.
func (w *Windows) Rates() []float64 { return w.rates }

// Ops returns the operations counted in closed sub-windows.
func (w *Windows) Ops() int64 { return w.total }

// Elapsed returns the time the closed sub-windows cover.
func (w *Windows) Elapsed() time.Duration { return w.begin.Sub(w.first) }

// SumRates adds the rates of concurrent clients sub-window by
// sub-window: each client closes its own windows within one operation
// of the others, so equal indices cover the same stretch of time.
func SumRates(ws ...*Windows) []float64 {
	var out []float64
	for _, w := range ws {
		for i, r := range w.rates {
			if i == len(out) {
				out = append(out, 0)
			}
			out[i] += r
		}
	}
	return out
}

// Op kinds a Recorder keeps separate latency samples for. Every
// workload has a write-like and a read-like call; anything else is
// KindOther and shows only in the overall percentiles.
const (
	KindPut = iota
	KindGet
	KindOther
	numKinds
)

// Recorder is one closed-loop client's view of a measured window: the
// latency of every operation by kind, and the sub-window throughput.
// In a traced run it also hands out the client's span track, but only
// in odd sub-windows: the even ones run untraced, so one run yields the
// traced and the untraced rate under the same conditions.
type Recorder struct {
	Win   *Windows
	Lat   [numKinds][]int64 // nanoseconds
	track *Track
}

// NewRecorder starts a recorder whose window opens at start. hint sizes
// the sample buffers (expected operations in the window) so that
// recording does not reallocate mid-run. track may be nil.
func NewRecorder(n int, width time.Duration, start time.Time, hint int, track *Track) *Recorder {
	r := &Recorder{Win: NewWindows(n, width, start), track: track}
	for k := range r.Lat {
		r.Lat[k] = make([]int64, 0, hint/2)
	}
	return r
}

// Op records one call of the given kind spanning [t0, t1] that
// completed ops operations, and reports whether the window is over.
func (r *Recorder) Op(kind int, t0, t1 time.Time, ops int64) (done bool) {
	r.Lat[kind] = append(r.Lat[kind], int64(t1.Sub(t0)))
	return r.Win.Add(t1, ops)
}

// Track returns the span track while the open sub-window is a traced
// one, else nil (a nil track's methods are no-ops). A nil Recorder —
// a client outside any window — is never traced.
func (r *Recorder) Track() *Track {
	if r == nil || r.track == nil || r.Win.Index()%2 == 0 {
		return nil
	}
	return r.track
}

// SplitRates separates the closed sub-windows' rates into the untraced
// (even) and traced (odd) ones.
func SplitRates(rates []float64) (untraced, traced []float64) {
	for i, r := range rates {
		if i%2 == 0 {
			untraced = append(untraced, r)
		} else {
			traced = append(traced, r)
		}
	}
	return untraced, traced
}
