package svc

import (
	"errors"
	"testing"
	"time"
)

// TestDueNowGates pins the serve loop's predicate: an empty queue is
// not due, a fresh op is due at once, an op sent back behind a backoff
// gate is due only once the gate has passed, and the counts the fast
// paths read (queued, gated) follow the queue through enqueue, take
// and a retrying settle.
func TestDueNowGates(t *testing.T) {
	st := NewDHTStore(StoreConfig{})
	st.cfg.Retry.Backoff = time.Hour
	if st.dueNow() {
		t.Fatal("empty queue reported due")
	}
	o := &op{kind: opPut, key: "k", done: make(chan struct{})}
	if err := st.enqueue(o); err != nil {
		t.Fatal(err)
	}
	if !st.dueNow() || st.queued.Load() != 1 {
		t.Fatalf("fresh op: due %v, queued %d; want true, 1", st.dueNow(), st.queued.Load())
	}
	if got := st.take(); len(got) != 1 || got[0] != o || st.queued.Load() != 0 || st.dueNow() {
		t.Fatalf("take returned %d ops, left queued %d, due %v", len(got), st.queued.Load(), st.dueNow())
	}

	// A retryable failure re-queues the op behind an hour's backoff.
	st.inflight = 1
	st.settle(nil, o, errors.New("replica down"))
	if st.queued.Load() != 1 || st.gated != 1 {
		t.Fatalf("after a retrying settle: queued %d, gated %d; want 1, 1", st.queued.Load(), st.gated)
	}
	if st.dueNow() || len(st.take()) != 0 {
		t.Fatal("op behind a one-hour gate reported due")
	}
	// A fresh op beside it is due without the gated one coming along.
	fresh := &op{kind: opGet, key: "j", done: make(chan struct{})}
	if err := st.enqueue(fresh); err != nil {
		t.Fatal(err)
	}
	if got := st.take(); !(len(got) == 1 && got[0] == fresh) || st.gated != 1 || st.queued.Load() != 1 {
		t.Fatalf("take beside a gated op: %d ops, gated %d, queued %d", len(got), st.gated, st.queued.Load())
	}
	o.notBefore = time.Now().Add(-time.Millisecond) // the gate passes
	if !st.dueNow() {
		t.Fatal("op past its gate not due")
	}
	if got := st.take(); len(got) != 1 || st.gated != 0 || st.queued.Load() != 0 {
		t.Fatalf("take past the gate: %d ops, gated %d, queued %d", len(got), st.gated, st.queued.Load())
	}
}
