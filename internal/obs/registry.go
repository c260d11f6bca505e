package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the process-wide metrics surface, with one way to publish
// a number: a latency (or size) distribution is a Histogram, created
// once at component construction and updated with atomics; every other
// number is a source, a pull-time callback folding in counters and
// levels owned elsewhere (conduit caps, aggregator stats, a gateway's
// in-flight and queued requests). Rendering (Prometheus text,
// Snapshot) only reads atomics and calls sources, so it is safe while
// a job is running.
type Registry struct {
	mu      sync.Mutex
	hists   map[string]*Histogram
	sources map[int]Source
	nextSrc int
}

// Source is a pull-time metrics callback: it returns a flat
// name->value map merged into renders under the source's rank label.
type Source struct {
	Rank int
	Pull func() map[string]int64
}

var reg = &Registry{
	hists:   map[string]*Histogram{},
	sources: map[int]Source{},
}

// Reg returns the process-wide registry.
func Reg() *Registry { return reg }

// histBuckets is the shared exponential bucket layout: powers of two
// starting at 1 (unit-agnostic — callers pick ns, bytes, ops...).
const histBuckets = 28

// Histogram counts observations into exponential (power-of-two)
// buckets; bucket i holds values in (2^(i-1), 2^i], bucket 0 holds
// <=1. Sum and count are tracked exactly.
type Histogram struct {
	name    string
	rank    int
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. Safe on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := 0
	if v > 1 {
		i = bits.Len64(uint64(v - 1))
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// key builds the registry map key: name plus rank label.
func key(name string, rank int) string { return fmt.Sprintf("%s{rank=%d}", name, rank) }

// NewHistogram returns the histogram with the given name and rank
// label, creating it on first use.
func (r *Registry) NewHistogram(name string, rank int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, rank)
	h := r.hists[k]
	if h == nil {
		h = &Histogram{name: name, rank: rank}
		r.hists[k] = h
	}
	return h
}

// AddSource registers a pull-time counter source and returns a handle
// to remove it (ranks are torn down when a job ends).
func (r *Registry) AddSource(rank int, pull func() map[string]int64) (remove func()) {
	r.mu.Lock()
	id := r.nextSrc
	r.nextSrc++
	r.sources[id] = Source{Rank: rank, Pull: pull}
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.sources, id)
		r.mu.Unlock()
	}
}

// reset drops all metrics and sources (tests / sequential jobs).
func (r *Registry) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists = map[string]*Histogram{}
	r.sources = map[int]Source{}
}

// snapshotLocked copies out the live metric handles under the lock so
// rendering can read atomics without holding it.
func (r *Registry) snapshotLocked() (hs []*Histogram, srcs []Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	for _, s := range r.sources {
		srcs = append(srcs, s)
	}
	return
}

// Snapshot flattens every metric and source into one name->value map
// with "{rank=N}" labels, the shape the bench harness folds into its
// JSON output. Histograms contribute _count and _sum entries.
func (r *Registry) Snapshot() map[string]int64 {
	hs, srcs := r.snapshotLocked()
	out := map[string]int64{}
	for _, h := range hs {
		out[key(h.name+"_count", h.rank)] = h.Count()
		out[key(h.name+"_sum", h.rank)] = h.Sum()
	}
	for _, s := range srcs {
		if s.Pull == nil {
			continue
		}
		for name, v := range s.Pull() {
			out[key(name, s.Rank)] += v
		}
	}
	return out
}

// SnapshotOwn is Snapshot restricted to the registry's histograms —
// sources are skipped. Used where the source-backed counters are
// already folded in elsewhere under different names (Stats).
func (r *Registry) SnapshotOwn() map[string]int64 {
	hs, _ := r.snapshotLocked()
	out := map[string]int64{}
	for _, h := range hs {
		if h.Count() == 0 {
			continue // don't pollute the bench JSON with empty series
		}
		out[key(h.name+"_count", h.rank)] = h.Count()
		out[key(h.name+"_sum", h.rank)] = h.Sum()
	}
	return out
}

// Prometheus renders the registry in the Prometheus text exposition
// format (one family per metric name, rank as a label). Sources render
// as untyped samples.
func (r *Registry) Prometheus() string {
	hs, srcs := r.snapshotLocked()
	var b strings.Builder

	type sample struct {
		rank int
		line string
	}
	families := map[string][]sample{}
	ftype := map[string]string{}

	add := func(name, typ string, rank int, line string) {
		families[name] = append(families[name], sample{rank, line})
		if ftype[name] == "" {
			ftype[name] = typ
		}
	}

	for _, h := range hs {
		cum := int64(0)
		var lines []string
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			cum += n
			if n == 0 && i > 0 {
				continue // elide empty buckets, keep the shape readable
			}
			le := float64(math.Exp2(float64(i)))
			lines = append(lines, fmt.Sprintf("%s_bucket{rank=\"%d\",le=\"%g\"} %d",
				h.name, h.rank, le, cum))
		}
		lines = append(lines,
			fmt.Sprintf("%s_bucket{rank=\"%d\",le=\"+Inf\"} %d", h.name, h.rank, h.Count()),
			fmt.Sprintf("%s_sum{rank=\"%d\"} %d", h.name, h.rank, h.Sum()),
			fmt.Sprintf("%s_count{rank=\"%d\"} %d", h.name, h.rank, h.Count()))
		add(h.name, "histogram", h.rank, strings.Join(lines, "\n"))
	}
	for _, s := range srcs {
		if s.Pull == nil {
			continue
		}
		m := s.Pull()
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			add(name, "untyped", s.Rank,
				fmt.Sprintf("%s{rank=\"%d\"} %d", name, s.Rank, m[name]))
		}
	}

	famNames := make([]string, 0, len(families))
	for name := range families {
		famNames = append(famNames, name)
	}
	sort.Strings(famNames)
	for _, name := range famNames {
		ss := families[name]
		sort.Slice(ss, func(i, j int) bool { return ss[i].rank < ss[j].rank })
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, ftype[name])
		for _, s := range ss {
			b.WriteString(s.line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
