package obs

import (
	"strings"
	"testing"
)

func TestRegistryCountersAndSnapshot(t *testing.T) {
	t.Cleanup(Reset)
	Reg().reset()

	h := Reg().NewHistogram("upcxx_rpc_rtt_ns", 0)
	h.Observe(1)
	h.Observe(1000)
	h.Observe(1_000_000)
	// A count and a level publish the same way: a source pulled at
	// render time. Two sources of one rank fold by name.
	total, pending := int64(42), int64(5)
	defer Reg().AddSource(0, func() map[string]int64 {
		return map[string]int64{"upcxx_rpc_total": total}
	})()
	defer Reg().AddSource(1, func() map[string]int64 {
		return map[string]int64{"upcxx_pending_ops": pending}
	})()
	defer Reg().AddSource(2, func() map[string]int64 {
		return map[string]int64{"wire_tx_frames": 9}
	})()
	defer Reg().AddSource(2, func() map[string]int64 {
		return map[string]int64{"wire_tx_frames": 4}
	})()

	snap := Reg().Snapshot()
	if snap["upcxx_rpc_total{rank=0}"] != 42 {
		t.Fatalf("count snapshot = %d, want 42", snap["upcxx_rpc_total{rank=0}"])
	}
	if snap["upcxx_pending_ops{rank=1}"] != 5 {
		t.Fatalf("level snapshot = %d, want 5", snap["upcxx_pending_ops{rank=1}"])
	}
	if snap["upcxx_rpc_rtt_ns_count{rank=0}"] != 3 || snap["upcxx_rpc_rtt_ns_sum{rank=0}"] != 1_001_001 {
		t.Fatalf("histogram snapshot wrong: %v", snap)
	}
	if snap["wire_tx_frames{rank=2}"] != 13 {
		t.Fatalf("folded source snapshot = %d, want 13", snap["wire_tx_frames{rank=2}"])
	}
	// Sources are read at render time, not at registration.
	pending = 3
	if got := Reg().Snapshot()["upcxx_pending_ops{rank=1}"]; got != 3 {
		t.Fatalf("level after change = %d, want 3", got)
	}
	// SnapshotOwn carries the histograms and skips the sources.
	own := Reg().SnapshotOwn()
	if len(own) != 2 || own["upcxx_rpc_rtt_ns_count{rank=0}"] != 3 {
		t.Fatalf("SnapshotOwn = %v, want the histogram's _count and _sum only", own)
	}
}

func TestRegistryIdempotentCreate(t *testing.T) {
	t.Cleanup(Reset)
	Reg().reset()
	a := Reg().NewHistogram("x", 3)
	b := Reg().NewHistogram("x", 3)
	if a != b {
		t.Fatal("same name+rank must return the same histogram")
	}
	a.Observe(7)
	if b.Count() != 1 || b.Sum() != 7 {
		t.Fatal("shared histogram not shared")
	}
	if Reg().NewHistogram("x", 4) == a {
		t.Fatal("another rank must get its own histogram")
	}
}

func TestPrometheusRender(t *testing.T) {
	t.Cleanup(Reset)
	Reg().reset()

	// Register rank 1 first: samples must still render in rank order.
	defer Reg().AddSource(1, func() map[string]int64 {
		return map[string]int64{"upcxx_flushes_total": 5}
	})()
	defer Reg().AddSource(0, func() map[string]int64 {
		return map[string]int64{"upcxx_flushes_total": 3}
	})()
	Reg().NewHistogram("upcxx_flush_bytes", 1).Observe(7)
	h := Reg().NewHistogram("upcxx_flush_bytes", 0)
	h.Observe(100)
	h.Observe(5000)

	text := Reg().Prometheus()
	for _, want := range []string{
		"# TYPE upcxx_flushes_total untyped",
		`upcxx_flushes_total{rank="0"} 3`,
		`upcxx_flushes_total{rank="1"} 5`,
		"# TYPE upcxx_flush_bytes histogram",
		`upcxx_flush_bytes_bucket{rank="0",le="+Inf"} 2`,
		`upcxx_flush_bytes_sum{rank="0"} 5100`,
		`upcxx_flush_bytes_count{rank="0"} 2`,
		`upcxx_flush_bytes_count{rank="1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, text)
		}
	}
	// Rank samples of one family must sort under one TYPE header.
	for _, fam := range []string{"upcxx_flushes_total", "upcxx_flush_bytes"} {
		if strings.Count(text, "# TYPE "+fam+" ") != 1 {
			t.Fatalf("duplicate TYPE headers for %s:\n%s", fam, text)
		}
		r0 := strings.Index(text, fam+`_count{rank="0"}`)
		r1 := strings.Index(text, fam+`_count{rank="1"}`)
		if fam == "upcxx_flushes_total" {
			r0 = strings.Index(text, fam+`{rank="0"}`)
			r1 = strings.Index(text, fam+`{rank="1"}`)
		}
		if r0 < 0 || r1 < 0 || r0 > r1 {
			t.Fatalf("%s: rank 0 sample must precede rank 1's:\n%s", fam, text)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Cleanup(Reset)
	Reg().reset()
	h := Reg().NewHistogram("b", 0)
	// 1 -> bucket 0 (<=1); 2 -> bucket 1 (<=2); 3 -> bucket 2 (<=4).
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(0)
	if got := h.buckets[0].Load(); got != 2 { // 0 and 1
		t.Fatalf("bucket0 = %d, want 2", got)
	}
	if got := h.buckets[1].Load(); got != 1 {
		t.Fatalf("bucket1 = %d, want 1", got)
	}
	if got := h.buckets[2].Load(); got != 1 {
		t.Fatalf("bucket2 = %d, want 1", got)
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var h *Histogram
	var r *Ring
	h.Observe(1)
	r.SetPid(1)
	if h.Count() != 0 || h.Sum() != 0 || r.Cap() != 0 || r.Written() != 0 || r.Dropped() != 0 {
		t.Fatal("nil metrics must be inert")
	}
}
