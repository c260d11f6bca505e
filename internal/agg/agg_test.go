package agg

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// memApplier records applied ops for assertions.
type memApplier struct {
	log []string
	mem map[uint64][]byte
}

func newMemApplier() *memApplier { return &memApplier{mem: map[uint64][]byte{}} }

func (m *memApplier) Put(off uint64, data []byte) error {
	m.mem[off] = append([]byte(nil), data...)
	m.log = append(m.log, fmt.Sprintf("put %d %d", off, len(data)))
	return nil
}

func (m *memApplier) Xor64(off uint64, val uint64) error {
	m.log = append(m.log, fmt.Sprintf("xor %d %x", off, val))
	return nil
}

func (m *memApplier) AM(id uint16, payload []byte) error {
	if id == rejectedAM {
		return fmt.Errorf("no handler %d", id)
	}
	m.log = append(m.log, fmt.Sprintf("am %d %q", id, payload))
	return nil
}

// rejectedAM is the handler id memApplier refuses.
const rejectedAM = 0xBAD

// capture is a Flusher that applies every batch to an Applier
// immediately and records batch shapes; acks are delivered on demand.
type capture struct {
	ap      Applier
	batches []int // ops per batch
	bytes   []int
	acks    []func()
}

func (c *capture) flush(t *testing.T) Flusher {
	return func(dst int, batch []byte, ops int, done func()) {
		n, err := Apply(batch, c.ap)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if n != ops {
			t.Fatalf("batch declared %d ops, decoded %d", ops, n)
		}
		c.batches = append(c.batches, ops)
		c.bytes = append(c.bytes, len(batch))
		c.acks = append(c.acks, done)
	}
}

func (c *capture) ackAll() {
	for _, d := range c.acks {
		d()
	}
	c.acks = nil
}

func TestRoundTripAndOrder(t *testing.T) {
	ap := newMemApplier()
	c := &capture{ap: ap}
	a := New(2, Config{MaxOps: 100}, c.flush(t))

	a.Put(1, 8, []byte("hello"), nil)
	a.Xor64(1, 16, 0xABCD, nil)
	a.Send(1, 7, []byte("ping"), nil)
	if got := a.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3 buffered", got)
	}
	a.Flush(1)
	c.ackAll()

	want := []string{"put 8 5", "xor 16 abcd", `am 7 "ping"`}
	if len(ap.log) != len(want) {
		t.Fatalf("applied %v, want %v", ap.log, want)
	}
	for i := range want {
		if ap.log[i] != want[i] {
			t.Errorf("op %d = %q, want %q (order must be preserved)", i, ap.log[i], want[i])
		}
	}
	if !bytes.Equal(ap.mem[8], []byte("hello")) {
		t.Errorf("put payload corrupted: %q", ap.mem[8])
	}
	if a.Pending() != 0 {
		t.Errorf("Pending = %d after ack, want 0", a.Pending())
	}
}

func TestMaxOpsFlush(t *testing.T) {
	c := &capture{ap: newMemApplier()}
	a := New(1, Config{MaxOps: 4}, c.flush(t))
	for i := 0; i < 10; i++ {
		a.Xor64(0, uint64(i*8), 1, nil)
	}
	if got := c.batches; len(got) != 2 || got[0] != 4 || got[1] != 4 {
		t.Fatalf("size-triggered batches = %v, want [4 4]", got)
	}
	if a.Buffered() != 2 {
		t.Fatalf("Buffered = %d, want 2 left open", a.Buffered())
	}
	a.FlushAll()
	if got := c.batches; len(got) != 3 || got[2] != 2 {
		t.Fatalf("after FlushAll batches = %v, want trailing 2", got)
	}
}

func TestMaxBytesFlush(t *testing.T) {
	c := &capture{ap: newMemApplier()}
	a := New(1, Config{MaxOps: 1000, MaxBytes: 64}, c.flush(t))
	// Each put encodes to 13+20 = 33 bytes: the second overflows 64 and
	// must flush the first before buffering.
	data := make([]byte, 20)
	a.Put(0, 0, data, nil)
	a.Put(0, 64, data, nil)
	if len(c.batches) != 1 || c.batches[0] != 1 {
		t.Fatalf("byte-triggered batches = %v, want [1]", c.batches)
	}
	// An op bigger than MaxBytes still ships, alone.
	big := make([]byte, 200)
	a.Put(0, 128, big, nil)
	if len(c.batches) != 3 {
		t.Fatalf("oversized op: batches = %v, want 3 total", c.batches)
	}
	if c.batches[2] != 1 || c.bytes[2] != 13+200 {
		t.Fatalf("oversized op must ship alone: ops=%d bytes=%d", c.batches[2], c.bytes[2])
	}
}

func TestAgeFlushOnTick(t *testing.T) {
	c := &capture{ap: newMemApplier()}
	a := New(2, Config{MaxOps: 100, MaxAge: time.Millisecond}, c.flush(t))
	now := time.Unix(0, 0)
	a.now = func() time.Time { return now }

	a.Xor64(0, 0, 1, nil)
	now = now.Add(500 * time.Microsecond)
	a.Xor64(1, 0, 1, nil)
	if n := a.Tick(); n != 0 {
		t.Fatalf("Tick before MaxAge flushed %d batches", n)
	}
	now = now.Add(600 * time.Microsecond) // dest 0 is now 1.1ms old, dest 1 only 0.6ms
	if n := a.Tick(); n != 1 {
		t.Fatalf("Tick flushed %d batches, want only the aged one", n)
	}
	now = now.Add(time.Millisecond)
	if n := a.Tick(); n != 1 {
		t.Fatalf("second Tick flushed %d batches, want 1", n)
	}
}

func TestCompletionCallbacks(t *testing.T) {
	c := &capture{ap: newMemApplier()}
	a := New(1, Config{MaxOps: 2}, c.flush(t))
	fired := 0
	a.Put(0, 0, []byte{1}, func() { fired++ })
	a.Xor64(0, 8, 1, func() { fired++ })
	if fired != 0 {
		t.Fatal("done fired before ack")
	}
	if a.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 in flight", a.Pending())
	}
	c.ackAll()
	if fired != 2 {
		t.Fatalf("done fired %d times, want 2", fired)
	}
	if a.Pending() != 0 {
		t.Fatalf("Pending = %d after ack, want 0", a.Pending())
	}
}

func TestCounters(t *testing.T) {
	c := &capture{ap: newMemApplier()}
	a := New(1, Config{MaxOps: 4}, c.flush(t))
	for i := 0; i < 8; i++ {
		a.Xor64(0, 0, 1, nil)
	}
	got := a.Counters()
	if got["agg_batches"] != 2 || got["agg_ops"] != 8 || got["agg_ops_per_batch"] != 4 {
		t.Errorf("counters = %v", got)
	}
	// 3 absorbed ops per batch, 52 bytes of frame overhead each.
	if got["agg_saved_bytes"] != 2*3*frameOverhead {
		t.Errorf("agg_saved_bytes = %v, want %d", got["agg_saved_bytes"], 2*3*frameOverhead)
	}
}

func TestApplyRejectsCorruptBatches(t *testing.T) {
	ap := newMemApplier()
	for _, bad := range [][]byte{
		{99},          // unknown kind
		{opPut, 0, 0}, // truncated put header
		{opPut, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0}, // put data missing
		{opXor, 1, 2, 3},              // truncated xor
		{opAM, 1},                     // truncated am header
		{opAM, 1, 0, 4, 0, 0, 0, 'x'}, // am payload short
	} {
		if _, err := Apply(bad, ap); err == nil {
			t.Errorf("Apply(%v) accepted a corrupt batch", bad)
		}
	}
	if _, err := Apply(nil, ap); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	// An op the applier rejects ends the batch: the ops before it ran,
	// the ones after it do not.
	ap = newMemApplier()
	enc := New(1, Config{MaxOps: 100}, func(_ int, batch []byte, _ int, _ func()) {
		if n, err := Apply(batch, ap); err == nil || n != 1 || len(ap.log) != 1 {
			t.Errorf("batch with a rejected op: %d ops ran (log %v), error %v", n, ap.log, err)
		}
	})
	enc.Send(0, 7, []byte("ok"), nil)
	enc.Send(0, rejectedAM, nil, nil)
	enc.Send(0, 7, []byte("late"), nil)
	enc.Flush(0)
}

// TestSendPartsEqualsSend: a payload handed over in two pieces is the
// same message on the wire as the pieces joined.
func TestSendPartsEqualsSend(t *testing.T) {
	var got [][]byte
	a := New(1, Config{MaxOps: 1}, func(_ int, batch []byte, _ int, done func()) {
		got = append(got, append([]byte(nil), batch...))
		done()
	})
	a.Send(0, 0x0203, []byte("headbody"), nil)
	a.SendParts(0, 0x0203, []byte("head"), []byte("body"), nil)
	a.SendParts(0, 0x0203, nil, []byte("headbody"), nil)
	if len(got) != 3 || !bytes.Equal(got[0], got[1]) || !bytes.Equal(got[0], got[2]) {
		t.Fatalf("batches differ: %q", got)
	}
}

// TestCallbacksOnlyForNonNil: completion runs over the recorded
// callbacks only, in issue order, once per batch — also when batches
// are acknowledged out of order and their records are reused.
func TestCallbacksOnlyForNonNil(t *testing.T) {
	c := &capture{ap: newMemApplier()}
	a := New(1, Config{MaxOps: 4}, c.flush(t))
	var fired []int
	note := func(i int) func() { return func() { fired = append(fired, i) } }
	for round := 0; round < 3; round++ {
		fired = fired[:0]
		for i := 0; i < 8; i++ { // two batches; odd ops carry callbacks
			var done func()
			if i%2 == 1 {
				done = note(i)
			}
			a.Xor64(0, uint64(i), 1, done)
		}
		if len(c.acks) != 2 {
			t.Fatalf("round %d: %d batches shipped, want 2", round, len(c.acks))
		}
		c.acks[1]()
		c.acks[0]()
		c.acks = nil
		if want := []int{5, 7, 1, 3}; fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Fatalf("round %d: callbacks fired %v, want %v", round, fired, want)
		}
		if a.Pending() != 0 {
			t.Fatalf("round %d: Pending = %d after both acks", round, a.Pending())
		}
	}
}

// recApplier re-encodes what Apply decodes, through the Aggregator's
// own encoders, so a fuzz input that decodes cleanly can be compared
// with its round trip.
type recApplier struct{ a *Aggregator }

func (r recApplier) Put(off uint64, data []byte) error  { r.a.Put(0, off, data, nil); return nil }
func (r recApplier) Xor64(off, val uint64) error        { r.a.Xor64(0, off, val, nil); return nil }
func (r recApplier) AM(id uint16, payload []byte) error { r.a.Send(0, id, payload, nil); return nil }

// FuzzApply holds the batch decoder to: arbitrary bytes give an error
// or decode to ops that re-encode to exactly the input; never a panic.
func FuzzApply(f *testing.F) {
	seed := New(1, Config{MaxOps: 100}, func(_ int, batch []byte, _ int, _ func()) { f.Add(batch) })
	seed.Put(0, 8, []byte("hello"), nil)
	seed.Xor64(0, 16, 0xABCD, nil)
	seed.Send(0, 7, []byte("ping"), nil)
	seed.SendParts(0, 1, []byte("hdr"), nil, nil)
	seed.Flush(0)
	f.Add([]byte{opPut, 1, 2})
	f.Add([]byte{opAM, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, in []byte) {
		var out []byte
		enc := New(1, Config{MaxOps: 1 << 30, MaxBytes: len(in) + 1}, func(_ int, batch []byte, _ int, _ func()) {
			out = batch
		})
		n, err := Apply(in, recApplier{enc})
		if err != nil {
			return
		}
		enc.Flush(0)
		if n != enc.inflight || !bytes.Equal(out, in) {
			t.Fatalf("batch %x decoded to %d ops re-encoding as %x", in, n, out)
		}
	})
}
