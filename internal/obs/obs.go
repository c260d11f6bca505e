// Package obs is the runtime's observability plane: low-overhead span
// tracing into per-rank ring buffers, a typed metrics registry rendered
// as Prometheus text and folded into the bench JSON, rank-liveness
// bookkeeping for the debug endpoint, and a leveled logging seam.
//
// The package is always compiled and runtime-gated: every tracing call
// site costs one predictable nil-check/atomic-load when tracing is off
// (asserted allocation-free by TestDisabledTracingOverhead), so the
// instrumentation threaded through core, agg, gasnet and transport can
// stay in the hot paths permanently. Tracing is enabled before a job
// constructs its conduits (upcxx-run's -trace / -debug-addr flags, or
// SetTracing in tests); rings are then handed out per rank by RingFor.
//
// Clocks: every event timestamp is nanoseconds since this process's
// obs epoch, captured once at init from the monotonic clock. The epoch
// also records its wall-clock anchor; the trace merger aligns rings
// from different processes by their wall anchors, which share one host
// clock in every launch mode this repo supports (upcxx-run spawns all
// ranks on one machine). See trace.go.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors all event timestamps. time.Now carries both the wall
// and the monotonic reading; time.Since(epoch) is purely monotonic,
// while epoch.UnixNano() is the wall anchor the merger aligns with.
var epoch = time.Now()

// EpochWallNs returns the wall-clock anchor of this process's trace
// timestamps (Unix nanoseconds at the obs epoch).
func EpochWallNs() int64 { return epoch.UnixNano() }

// nowNs returns nanoseconds since the obs epoch (monotonic).
func nowNs() uint64 { return uint64(time.Since(epoch)) }

// NowNs is the exported obs clock — the same time base trace records
// carry — for callers measuring latencies to pair with histograms.
func NowNs() uint64 { return nowNs() }

// tracing is the master gate every span call site checks.
var tracing atomic.Bool

// SetTracing flips the span-tracing gate. Enable it before the job
// builds its conduits: each component takes its ring (RingFor) when it
// is built — the conduits and, through their options, the transport
// endpoints; the aggregator when its rank starts — so a ring handed out
// while tracing is off stays nil (and every call site on it is a no-op
// forever).
func SetTracing(on bool) { tracing.Store(on) }

// DefaultRingEvents is the capacity of every rank's span ring: 1<<15
// records x 32 bytes = 1 MiB per rank.
const DefaultRingEvents = 1 << 15

// rings is the per-process ring registry, keyed by world rank. One
// process may host many ranks (the in-process backend, RunWireLocal),
// so the registry is locked; ring writes themselves are lock-free.
var (
	ringMu sync.Mutex
	rings  = map[int]*Ring{}
)

// RingFor returns rank's span ring, creating it on first use — or nil
// while tracing is disabled, which makes every span call on it a
// nil-check no-op. Components capture the ring once at construction.
func RingFor(rank int) *Ring {
	if !tracing.Load() {
		return nil
	}
	ringMu.Lock()
	defer ringMu.Unlock()
	r := rings[rank]
	if r == nil {
		r = NewRing(rank, DefaultRingEvents)
		rings[rank] = r
	}
	return r
}

// Rings snapshots the registry: every ring created so far, in rank
// order. Used by the exporters.
func Rings() []*Ring {
	ringMu.Lock()
	defer ringMu.Unlock()
	out := make([]*Ring, 0, len(rings))
	for _, r := range rings {
		out = append(out, r)
	}
	sortRingsByRank(out)
	return out
}

func sortRingsByRank(rs []*Ring) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j-1].rank > rs[j].rank; j-- {
			rs[j-1], rs[j] = rs[j], rs[j-1]
		}
	}
}

// Reset clears the whole observability plane — rings, registry, and
// liveness — so sequential jobs in one process (tests) do not bleed
// into each other. It does not touch the tracing gate or verbosity.
func Reset() {
	ringMu.Lock()
	rings = map[int]*Ring{}
	ringMu.Unlock()
	Reg().reset()
	resetHealth()
}
