package measure

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program: which call, when, the span that caused it, and the request
// it belongs to. Times are nanoseconds since the tracer's epoch.
type Span struct {
	Name       string
	Start, End int64
	Parent     int32 // index in the same track, -1 for a root
	Req        uint64
}

// MaxSpansPerTrack bounds a track's memory (about 48 MiB, enough for
// the traced half of a 20 s window at 65,000 operations per second); a
// run that produces more keeps the first ones and counts the rest as
// dropped.
const MaxSpansPerTrack = 1 << 20

// Tracer keeps the spans of a traced run in memory, one Track per
// client goroutine so that recording takes no lock, and writes them
// out when the run ends.
type Tracer struct {
	epoch  time.Time
	tracks []*Track
}

// Track is one goroutine's span buffer. A nil Track records nothing:
// clients call Begin/End unconditionally and get a nil Track for
// untraced stretches.
type Track struct {
	tr      *Tracer
	Tid     int
	Spans   []Span
	Dropped int64
}

// NewTracer starts a tracer whose times count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewTrack adds a track with the given thread id. Call before the
// goroutines start; the tracer itself is not safe for concurrent use.
func (tr *Tracer) NewTrack(tid int) *Track {
	if tr == nil {
		return nil
	}
	k := &Track{tr: tr, Tid: tid}
	tr.tracks = append(tr.tracks, k)
	return k
}

// Tracks returns the tracks in creation order.
func (tr *Tracer) Tracks() []*Track { return tr.tracks }

// Begin opens a span that started at the given instant and returns its
// id for End and for children to name as parent (-1 when not recorded).
func (k *Track) Begin(name string, at time.Time, parent int32, req uint64) int32 {
	if k == nil {
		return -1
	}
	if len(k.Spans) >= MaxSpansPerTrack {
		k.Dropped++
		return -1
	}
	k.Spans = append(k.Spans, Span{Name: name, Start: int64(at.Sub(k.tr.epoch)), Parent: parent, Req: req})
	return int32(len(k.Spans) - 1)
}

// End closes span id at the given instant.
func (k *Track) End(id int32, at time.Time) {
	if k == nil || id < 0 {
		return
	}
	k.Spans[id].End = int64(at.Sub(k.tr.epoch))
}

// SelfTimes returns, for each span of a track, its duration minus the
// part of that interval its direct children cover (overlapping
// children are not subtracted twice, and a child is clipped to its
// parent's interval).
func SelfTimes(spans []Span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start // everything before this instant is accounted for
		for _, c := range ks {
			lo, hi := max(spans[c].Start, covered), min(spans[c].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// NameTotal is the aggregate of all spans sharing a name.
type NameTotal struct {
	Name        string
	Count       int64
	Total, Self int64 // nanoseconds
}

// Summary aggregates every track's spans by name, ordered by total
// time: the per-stage table a reader builds a layer budget from.
func (tr *Tracer) Summary() []NameTotal {
	by := map[string]*NameTotal{}
	for _, k := range tr.tracks {
		self := SelfTimes(k.Spans)
		for i, s := range k.Spans {
			t := by[s.Name]
			if t == nil {
				t = &NameTotal{Name: s.Name}
				by[s.Name] = t
			}
			t.Count++
			t.Total += s.End - s.Start
			t.Self += self[i]
		}
	}
	out := make([]NameTotal, 0, len(by))
	for _, t := range by {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Total != out[b].Total {
			return out[a].Total > out[b].Total
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Dropped returns how many spans did not fit their track.
func (tr *Tracer) Dropped() int64 {
	var n int64
	for _, k := range tr.tracks {
		n += k.Dropped
	}
	return n
}

// WriteChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps), loadable in chrome://tracing
// and Perfetto. Each event's args carry the request id and the name of
// the parent span.
func (tr *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, k := range tr.tracks {
		for _, s := range k.Spans {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			parent := ""
			if s.Parent >= 0 {
				parent = k.Spans[s.Parent].Name
			}
			fmt.Fprintf(bw, "\n"+`{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"req":%d,"parent":%q}}`,
				s.Name, k.Tid, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Req, parent)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
