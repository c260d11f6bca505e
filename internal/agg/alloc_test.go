//go:build !race

// Steady-state allocation gate for the append/flush/ack cycle. The race
// detector instruments allocations, so this runs in non-race builds
// only (the CI alloc-gate leg).
package agg

import (
	"testing"

	"upcxx/internal/frames"
)

// TestAllocsNilCallbackBatch: buffering, shipping and acknowledging a
// 1024-op batch of sends without completion callbacks allocates
// nothing once the encoder buffer's pool and the shipped-record free
// list are warm — no callback slot per op, no slice regrown per batch,
// no closure per flush.
func TestAllocsNilCallbackBatch(t *testing.T) {
	const ops = 1024
	a := New(2, Config{MaxOps: ops, MaxBytes: 1 << 20}, func(_ int, batch []byte, n int, done func()) {
		if n != ops {
			t.Fatalf("flushed %d ops, want %d", n, ops)
		}
		frames.Put(batch)
		done()
	})
	hdr, body := []byte("0123456789abcdefghi"), make([]byte, 24)
	if got := testing.AllocsPerRun(20, func() {
		for i := 0; i < ops; i++ {
			a.SendParts(1, 1, hdr, body, nil)
		}
		if a.Pending() != 0 {
			t.Fatalf("%d ops pending after the size-triggered flush was acked", a.Pending())
		}
	}); got != 0 {
		t.Errorf("1024-op nil-callback batch: %v allocs per batch, want 0", got)
	}
}
