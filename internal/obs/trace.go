package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Flush reasons carried in KAggFlush's arg; shared here so the agg
// layer and the trace exporter agree on the encoding.
const (
	FlushMaxOps = iota + 1
	FlushMaxBytes
	FlushMaxAge
	FlushExplicit
	FlushBarrier
	// FlushReply marks a batch handed over to ride an acknowledgement
	// (agg.TakeReply) rather than shipped as a batch of its own.
	FlushReply
)

// FlushReasonName names a KAggFlush arg value.
func FlushReasonName(r uint64) string {
	switch r {
	case FlushMaxOps:
		return "MaxOps"
	case FlushMaxBytes:
		return "MaxBytes"
	case FlushMaxAge:
		return "MaxAge"
	case FlushExplicit:
		return "explicit"
	case FlushBarrier:
		return "barrier"
	case FlushReply:
		return "reply"
	}
	return "unknown"
}

// TraceEvent is one Chrome trace_event record. Timestamps are
// microseconds; within a per-process file they are relative to that
// process's obs epoch (the wall anchor rides in otherData).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the JSON-object form of a Chrome trace.
type TraceFile struct {
	TraceEvents []TraceEvent      `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData,omitempty"`
}

// eventArgs builds the args map for one ring event.
func eventArgs(e Event) map[string]any {
	var m map[string]any
	set := func(k string, v any) {
		if m == nil {
			m = map[string]any{}
		}
		m[k] = v
	}
	if e.Peer >= 0 {
		set("peer", e.Peer)
	}
	if e.Bytes > 0 {
		set("bytes", e.Bytes)
	}
	if e.Arg != 0 {
		if e.Kind == KAggFlush {
			set("reason", FlushReasonName(e.Arg))
		} else if e.Kind == KWireTx || e.Kind == KWireRx {
			set("handler", e.Arg)
		} else {
			set("arg", e.Arg)
		}
	}
	return m
}

// RingTraceEvents converts a ring snapshot into Chrome trace events.
// Begin/End records are paired LIFO per kind into "X" complete events
// (robust against wraparound: orphaned Ends are dropped, Begins left
// open at the end of the ring are closed at the last timestamp seen).
// Instants become "i" events with thread scope.
func RingTraceEvents(r *Ring) []TraceEvent {
	evs := r.Snapshot()
	if len(evs) == 0 {
		return nil
	}
	maxNs := evs[len(evs)-1].TNs
	for _, e := range evs {
		if e.TNs > maxNs {
			maxNs = e.TNs
		}
	}
	pid, tid := r.pid, r.rank
	var out []TraceEvent
	open := map[Kind][]Event{}
	emit := func(b Event, endNs uint64) {
		out = append(out, TraceEvent{
			Name: b.Kind.Name(), Cat: b.Kind.Category(), Ph: "X",
			Ts: float64(b.TNs) / 1e3, Dur: float64(endNs-b.TNs) / 1e3,
			Pid: pid, Tid: tid, Args: eventArgs(b),
		})
	}
	for _, e := range evs {
		switch e.Ev {
		case evBegin:
			open[e.Kind] = append(open[e.Kind], e)
		case evEnd:
			st := open[e.Kind]
			if len(st) == 0 {
				continue // begin lost to wraparound
			}
			b := st[len(st)-1]
			open[e.Kind] = st[:len(st)-1]
			emit(b, e.TNs)
		case evInstant:
			out = append(out, TraceEvent{
				Name: e.Kind.Name(), Cat: e.Kind.Category(), Ph: "i",
				Ts: float64(e.TNs) / 1e3, Pid: pid, Tid: tid,
				S: "t", Args: eventArgs(e),
			})
		}
	}
	for _, st := range open {
		for _, b := range st {
			emit(b, maxNs) // still running at dump time
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}

// WriteProcessTrace writes every ring in this process as one Chrome
// trace JSON object, with the process's wall-clock epoch anchor in
// otherData for cross-process alignment by the merger.
func WriteProcessTrace(w io.Writer) error {
	tf := TraceFile{
		TraceEvents: []TraceEvent{},
		OtherData: map[string]string{
			"epochNs": strconv.FormatInt(EpochWallNs(), 10),
		},
	}
	var dropped uint64
	for _, r := range Rings() {
		tf.TraceEvents = append(tf.TraceEvents, RingTraceEvents(r)...)
		dropped += r.Dropped()
	}
	if dropped > 0 {
		tf.OtherData["droppedEvents"] = strconv.FormatUint(dropped, 10)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&tf)
}

// DumpTraceFile writes this process's trace to dir as
// trace-rank<R>.json, where R is the lowest rank hosted here. It is
// the child-side half of `upcxx-run -trace`.
func DumpTraceFile(dir string, rank int) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-rank%03d.json", rank))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteProcessTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mergeTraceFiles aligns per-process traces by their wall epoch
// anchors (all processes share one host clock), re-zeroes the merged
// timeline at the earliest anchor, and returns the combined trace
// sorted by timestamp.
func mergeTraceFiles(parts []TraceFile) TraceFile {
	minEpoch := int64(0)
	anchors := make([]int64, len(parts))
	for i, pt := range parts {
		anchor, _ := strconv.ParseInt(pt.OtherData["epochNs"], 10, 64)
		anchors[i] = anchor
		if minEpoch == 0 || (anchor != 0 && anchor < minEpoch) {
			minEpoch = anchor
		}
	}
	merged := TraceFile{
		TraceEvents: []TraceEvent{},
		OtherData: map[string]string{
			"epochNs": strconv.FormatInt(minEpoch, 10),
			"merged":  strconv.Itoa(len(parts)),
		},
	}
	for i, pt := range parts {
		shiftUs := float64(0)
		if anchors[i] != 0 {
			shiftUs = float64(anchors[i]-minEpoch) / 1e3
		}
		for _, e := range pt.TraceEvents {
			e.Ts += shiftUs
			merged.TraceEvents = append(merged.TraceEvents, e)
		}
	}
	sort.SliceStable(merged.TraceEvents, func(i, j int) bool {
		return merged.TraceEvents[i].Ts < merged.TraceEvents[j].Ts
	})
	return merged
}

// MergeTraceDir reads every trace-*.json in dir, merges them with
// mergeTraceFiles, and writes the combined trace to outPath.
// Returns the number of events merged.
func MergeTraceDir(dir, outPath string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if err != nil {
		return 0, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return 0, fmt.Errorf("obs: no trace-*.json files in %s", dir)
	}
	var parts []TraceFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		var tf TraceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			return 0, fmt.Errorf("obs: %s: %w", p, err)
		}
		parts = append(parts, tf)
	}
	merged := mergeTraceFiles(parts)
	f, err := os.Create(outPath)
	if err != nil {
		return 0, err
	}
	if err := json.NewEncoder(f).Encode(&merged); err != nil {
		f.Close()
		return 0, err
	}
	return len(merged.TraceEvents), f.Close()
}

// TraceSummary is what ValidateTrace reports about a merged trace.
type TraceSummary struct {
	Events     int
	Categories map[string]int // events per subsystem
	Tids       map[int]int    // events per rank
}

// ValidateTrace parses Chrome trace JSON and checks structural
// sanity: every event has a name and a known phase, complete events
// have non-negative ts/dur, and per-tid timestamps are consistent
// (an event never ends after a later-starting sibling began earlier
// than it — i.e. spans nest or follow, never tear). Used by the
// golden test and the upcxx-trace CI checker.
func ValidateTrace(data []byte) (TraceSummary, error) {
	s := TraceSummary{Categories: map[string]int{}, Tids: map[int]int{}}
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return s, fmt.Errorf("invalid trace JSON: %w", err)
	}
	for i, e := range tf.TraceEvents {
		if e.Name == "" {
			return s, fmt.Errorf("event %d: empty name", i)
		}
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				return s, fmt.Errorf("event %d (%s): negative dur %g", i, e.Name, e.Dur)
			}
		case "i", "I", "M":
		default:
			return s, fmt.Errorf("event %d (%s): unexpected phase %q", i, e.Name, e.Ph)
		}
		if e.Ts < 0 {
			return s, fmt.Errorf("event %d (%s): negative ts %g", i, e.Name, e.Ts)
		}
		s.Events++
		s.Categories[e.Cat]++
		s.Tids[e.Tid]++
	}
	// Per-tid monotonic consistency: walking events in file order
	// (sorted by ts by the writer), ts must never decrease.
	last := map[int]float64{}
	for i, e := range tf.TraceEvents {
		if prev, ok := last[e.Tid]; ok && e.Ts < prev {
			return s, fmt.Errorf("event %d (%s): tid %d ts %g before %g", i, e.Name, e.Tid, e.Ts, prev)
		}
		last[e.Tid] = e.Ts
	}
	return s, nil
}
