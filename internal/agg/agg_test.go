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

// AM logs each message of the run with its payload, the run's header
// followed by the message's body.
func (m *memApplier) AM(id uint16, run Run) (int, error) {
	if id == rejectedAM {
		return 0, fmt.Errorf("no handler %d", id)
	}
	n := run.Len()
	for run.Len() > 0 {
		m.log = append(m.log, fmt.Sprintf("am %d %q", id, append(bytes.Clone(run.Hdr), run.Next()...)))
	}
	return n, nil
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

// TestTakeReply: a destination's open batch is handed over whole, in the
// Apply encoding, only while none of its ops carries a completion; a
// handed-over reply is neither buffered nor in flight, and counts as a
// reply, not a batch.
func TestTakeReply(t *testing.T) {
	c := &capture{ap: newMemApplier()}
	a := New(2, Config{MaxOps: 100}, c.flush(t))
	if rep := a.TakeReply(1); rep != nil {
		t.Fatalf("empty destination handed over %x", rep)
	}
	a.Put(1, 8, []byte("hi"), nil)
	a.Send(1, 7, []byte("answer"), nil)
	a.Xor64(0, 16, 1, nil) // another destination's op stays
	rep := a.TakeReply(1)
	ap := newMemApplier()
	if n, err := Apply(rep, ap); err != nil || n != 2 || fmt.Sprint(ap.log) != `[put 8 2 am 7 "answer"]` {
		t.Fatalf("reply applied %d ops %v (%v), want the put and the AM in issue order", n, ap.log, err)
	}
	if a.Pending() != 1 || a.Buffered() != 1 {
		t.Fatalf("Pending %d, Buffered %d after the reply, want only rank 0's op", a.Pending(), a.Buffered())
	}

	fired := false
	a.Send(1, 7, []byte("plain"), nil)
	a.Send(1, 7, []byte("tracked"), func() { fired = true })
	if rep := a.TakeReply(1); rep != nil {
		t.Fatalf("a buffer holding a completion was handed over: %x", rep)
	}
	a.FlushAll()
	if len(c.batches) != 2 || c.batches[1] != 2 {
		t.Fatalf("batches %v, want rank 0's op and rank 1's two ops whole", c.batches)
	}
	c.ackAll()
	if !fired {
		t.Fatal("the completion did not fire on its batch's ack")
	}
	got := a.Counters()
	if got["agg_batches"] != 2 || got["agg_ack_replies"] != 1 || got["agg_ops"] != 5 || got["agg_ops_per_batch"] != 5.0/3 {
		t.Errorf("counters = %v", got)
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
		{opXor, 1, 2, 3},               // truncated xor
		{opRun, 1, 0, 1},               // truncated run header
		{opRun, 1, 0, 4, 0, 0, 0, 'x'}, // run items short (runSeeds has the rest)
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

// TestSendPartsEqualsSend: a payload handed over in two pieces reaches
// the handler as the same message as the pieces joined.
func TestSendPartsEqualsSend(t *testing.T) {
	ap := newMemApplier()
	c := &capture{ap: ap}
	a := New(1, Config{MaxOps: 1}, c.flush(t))
	a.Send(0, 0x0203, []byte("headbody"), nil)
	a.SendParts(0, 0x0203, []byte("head"), []byte("body"), nil)
	a.SendParts(0, 0x0203, nil, []byte("headbody"), nil)
	want := `am 515 "headbody"`
	if len(ap.log) != 3 || ap.log[0] != want || ap.log[1] != want || ap.log[2] != want {
		t.Fatalf("handler saw %q, want %q three times", ap.log, want)
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

func (r recApplier) Put(off uint64, data []byte) error { r.a.Put(0, off, data, nil); return nil }
func (r recApplier) Xor64(off, val uint64) error       { r.a.Xor64(0, off, val, nil); return nil }
func (r recApplier) AM(id uint16, run Run) (int, error) {
	n := run.Len()
	for run.Len() > 0 {
		r.a.SendParts(0, id, run.Hdr, run.Next(), nil)
	}
	return n, nil
}

// runSeeds are hand-built batches in the run form, each named by what
// Apply must do with it: the non-canonical ones are one of each kind
// of encoding the encoder never writes.
var runSeeds = []struct {
	name  string
	batch []byte
	ok    bool
}{
	{"two-message run", []byte{opRun, 7, 0, 2, 1, 'h', 1, 'a', 0}, true},
	{"runs split by a put", []byte{opRun, 7, 0, 1, 0, 0, opPut, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, opRun, 7, 0, 1, 0, 0}, true},
	{"runs of two headers", []byte{opRun, 7, 0, 1, 1, 'a', 0, opRun, 7, 0, 1, 1, 'b', 0}, true},
	{"zero count", []byte{opRun, 7, 0, 0, 0}, false},
	{"header past the batch", []byte{opRun, 7, 0, 1, 4, 'h', 'd'}, false},
	{"item past the batch", []byte{opRun, 7, 0, 1, 0, 5, 'b', 'o'}, false},
	{"count past the batch", []byte{opRun, 7, 0, 9, 0, 0, 0}, false},
	{"overlong item length", []byte{opRun, 7, 0, 1, 0, 0x80, 0x00}, false},
	{"truncated item length", []byte{opRun, 7, 0, 1, 0, 0x80}, false},
	{"mergeable neighbour", []byte{opRun, 7, 0, 1, 1, 'h', 0, opRun, 7, 0, 1, 1, 'h', 0}, false},
}

// fullRun is a run at the count cap followed by one more message of the
// same id and header: canonical, because the first run cannot grow.
func fullRun() []byte {
	b := []byte{opRun, 7, 0, maxRun, 0}
	b = append(b, make([]byte, maxRun)...) // maxRun empty bodies
	return append(b, opRun, 7, 0, 1, 0, 0)
}

func TestApplyRunSeeds(t *testing.T) {
	for _, c := range runSeeds {
		if _, err := Apply(c.batch, newMemApplier()); (err == nil) != c.ok {
			t.Errorf("%s: Apply(%x) = %v, want ok %v", c.name, c.batch, err, c.ok)
		}
	}
	if n, err := Apply(fullRun(), newMemApplier()); err != nil || n != maxRun+1 {
		t.Errorf("a full run and its successor: %d ops, %v; want %d, nil", n, err, maxRun+1)
	}
}

// TestRunEncoding pins the run form: messages to one handler with one
// header share a run while it is the batch's last op and below the
// cap; a lone message costs 6 bytes of framing; a put, another header,
// the cap, a flush or TakeReply close the run.
func TestRunEncoding(t *testing.T) {
	var got [][]byte
	a := New(2, Config{MaxOps: 1000, MaxBytes: 1 << 20}, func(_ int, batch []byte, _ int, done func()) {
		got = append(got, bytes.Clone(batch))
		done()
	})
	a.SendParts(1, 7, []byte("h"), []byte("ab"), nil)
	if n := len(a.bufs[1].buf); n != runHead+1+1+2 {
		t.Fatalf("a lone message with a 1-byte header encodes to %d bytes, want %d", n, runHead+4)
	}
	a.SendParts(1, 7, []byte("h"), []byte("c"), nil)
	a.SendParts(1, 7, []byte("g"), nil, nil)
	a.Put(1, 0, nil, nil)
	a.SendParts(1, 7, []byte("g"), nil, nil)
	a.Flush(1)
	want := []byte{opRun, 7, 0, 2, 1, 'h', 2, 'a', 'b', 1, 'c', opRun, 7, 0, 1, 1, 'g', 0,
		opPut, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, opRun, 7, 0, 1, 1, 'g', 0}
	if len(got) != 1 || !bytes.Equal(got[0], want) {
		t.Fatalf("batch %x, want %x", got, want)
	}

	// The cap closes a run; the next message opens another.
	for i := 0; i < maxRun+1; i++ {
		a.Send(1, 7, nil, nil)
	}
	a.Flush(1)
	if b := got[1]; len(b) != 2*runHead+maxRun+1 || b[3] != maxRun || b[runHead+maxRun+3] != 1 {
		t.Fatalf("%d messages encode as %x", maxRun+1, b)
	}

	// A flush and TakeReply each end the run: the next message, and
	// OpenRun's name for the old run, start over.
	a.Send(1, 7, nil, nil)
	tok := a.OpenRun(1)
	if tok == 0 || !a.Extend(1, tok, []byte("x")) {
		t.Fatal("Extend refused the open run it was named")
	}
	a.Flush(1)
	if a.Extend(1, tok, nil) || a.OpenRun(1) != 0 {
		t.Fatal("a flushed run is still open")
	}
	a.Send(1, 7, nil, nil)
	tok = a.OpenRun(1)
	if rep := a.TakeReply(1); !bytes.Equal(rep, []byte{opRun, 7, 0, 1, 0, 0}) {
		t.Fatalf("reply %x", rep)
	}
	if a.Extend(1, tok, nil) {
		t.Fatal("Extend added to a run TakeReply handed over")
	}
	a.Send(1, 7, nil, nil)
	tok = a.OpenRun(1)
	a.Xor64(1, 0, 1, nil)
	if a.Extend(1, tok, nil) || a.OpenRun(1) != 0 {
		t.Fatal("a run followed by an xor is still open")
	}
	a.FlushAll()
	if last := got[len(got)-1]; !bytes.Equal(last[:runHead+1], []byte{opRun, 7, 0, 1, 0, 0}) {
		t.Fatalf("the message after TakeReply opened %x, want a run of its own", last)
	}
}

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
	f.Add([]byte{opRun, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{9})
	for _, c := range runSeeds {
		f.Add(c.batch)
	}
	f.Add(fullRun())
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
