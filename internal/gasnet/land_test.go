package gasnet

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/frames"
)

// waitCounter polls one of cd's counters until it reaches want.
func waitCounter(t *testing.T, cd *WireConduit, name string, want float64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); cd.Counters()[name] < want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %v, want %v", name, cd.Counters()[name], want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLongPutKeepsSenderOrder pins the order rule of put landing. Rank 0
// sends a batch whose handler writes word X (the wire half of an
// AggPut), then a 4 KiB put covering X. While rank 1 is busy — not
// polling, the batch still in its inbox — the put must not land ahead
// of the batch: it takes the pooled path (one fallback), and X ends as
// the put wrote it. Once rank 1 is idle in a wait, the same put lands.
func TestLongPutKeepsSenderOrder(t *testing.T) {
	cds := wireFleet(t, 2, 1<<16)
	mem := cds[1].mem.(*testMem)
	cds[1].SetBatchHandler(func(_ int, p []byte) error { mem.Write(u64(p), p[8:16]); return nil }, noReply, func() {})
	const x = 64
	word := func() []byte {
		mem.mu.Lock()
		defer mem.mu.Unlock()
		return append([]byte(nil), mem.buf[x:x+8]...)
	}

	// Busy target.
	done := make(chan error, 1)
	go func() { // rank 0's goroutine
		batch := frames.Get(16)
		putU64(batch, x)
		putU64(batch[8:], 0x1111111111111111)
		if err := cds[0].SendBatch(1, batch, nil); err != nil {
			done <- err
			return
		}
		done <- cds[0].Put(1, 0, bytes.Repeat([]byte{0xAB}, 4096))
	}()
	waitCounter(t, cds[1], "net_rx_land_fallbacks", 1)
	stop := servePoll(cds[1])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	stop()
	if got := word(); !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 8)) {
		t.Fatalf("busy target: X = %x, want the put's abab... (the batch applied after the put)", got)
	}
	c := cds[1].Counters()
	if c["net_rx_land_fallbacks"] != 1 || c["net_rx_landed"] != 0 {
		t.Fatalf("busy target: net_rx_land_fallbacks %v, net_rx_landed %v, want 1 and 0",
			c["net_rx_land_fallbacks"], c["net_rx_landed"])
	}

	// Idle target: parked in a wait, every earlier frame dispatched.
	var quit atomic.Bool
	served := make(chan error, 1)
	go func() { served <- cds[1].WaitFor(quit.Load) }()
	if err := cds[0].Put(1, 0, bytes.Repeat([]byte{0xCD}, 4096)); err != nil {
		t.Fatal(err)
	}
	quit.Store(true)
	cds[1].Wake()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if got := word(); !bytes.Equal(got, bytes.Repeat([]byte{0xCD}, 8)) {
		t.Fatalf("idle target: X = %x, want the landed put's cdcd...", got)
	}
	c = cds[1].Counters()
	if c["net_rx_landed"] != 1 || c["net_rx_land_fallbacks"] != 1 {
		t.Fatalf("idle target: net_rx_landed %v, net_rx_land_fallbacks %v, want 1 and 1",
			c["net_rx_landed"], c["net_rx_land_fallbacks"])
	}
}

// TestGetLandingAbandoned: a resilient rank's long Get has its reply
// landing armed when the target dies without answering. Get returns a
// RankDeadError, and its destination is untouched — not before Get
// returns (nothing arrived) and not after (the landing is disarmed, so a
// reader can never write it again). CI runs it -race -count=20.
func TestGetLandingAbandoned(t *testing.T) {
	cds := wireFleet(t, 2, 1<<16)
	cds[0].EnableResilience(ResilienceConfig{HeartbeatInterval: time.Minute, HeartbeatTimeout: time.Minute}, nil)
	dst := make([]byte, 4096)
	done := make(chan error, 1)
	go func() { done <- cds[0].Get(1, 0, dst) }()
	// Rank 1 never polls: once its reader has the request, it dies.
	waitCounter(t, cds[1], "net_rx_frames", 1)
	cds[1].Abort()
	err := <-done
	var dead *RankDeadError
	if !errors.As(err, &dead) || dead.Rank != 1 {
		t.Fatalf("Get = %v, want a RankDeadError for rank 1", err)
	}
	if !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Fatal("Get wrote its destination although no reply arrived")
	}
	for i := range dst {
		dst[i] = 0xEE
	}
	cds[0].Close() // waits for the reader goroutines
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, len(dst))) {
		t.Fatal("the destination was written after Get returned")
	}
}

// TestNestedLongGets: a blocked long Get to rank 1 dispatches, while it
// waits, a handler that makes its own long Get to rank 1 — a task body
// reading from the same peer. The inner Get starts while the outer
// landing is still armed, or after the outer reply has already landed
// in it. Either way the inner Get takes the pooled path, the outer one
// keeps its landing, and both return their own bytes and no error.
func TestNestedLongGets(t *testing.T) {
	for _, afterLanding := range []bool{false, true} {
		cds := wireFleet(t, 2, 1<<16)
		a, b := pattern(4096), bytes.Repeat([]byte{0x3C}, 4096)
		cds[1].mem.Write(0, a)
		cds[1].mem.Write(8192, b)
		outer, inner := make([]byte, len(a)), make([]byte, len(b))
		innerErr := errors.New("the batch handler never ran")
		cds[0].SetBatchHandler(func(int, []byte) error {
			// Rank 0's goroutine, inside the outer Get's wait.
			for deadline := time.Now().Add(10 * time.Second); afterLanding && cds[0].Counters()["net_rx_landed"] < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					innerErr = errors.New("the outer reply never landed")
					return nil
				}
			}
			innerErr = cds[0].Get(1, 8192, inner)
			return nil
		}, noReply, func() {})
		done := make(chan error, 1)
		go func() { done <- cds[0].Get(1, 0, outer) }()

		// Rank 1 (this goroutine): once the outer request is in, a batch
		// for rank 0; then, with the reply queued behind the batch, it
		// serves. Without afterLanding it serves only once the inner
		// request is in too, so the inner Get arms while the outer reply
		// is still to come.
		waitCounter(t, cds[1], "net_rx_frames", 1)
		if err := cds[1].SendBatch(0, frames.Get(16), nil); err != nil {
			t.Fatal(err)
		}
		if !afterLanding {
			cds[1].tep.Flush()
			waitCounter(t, cds[1], "net_rx_frames", 2)
		}
		stop := servePoll(cds[1])
		err := <-done
		stop()
		if err != nil || innerErr != nil {
			t.Fatalf("afterLanding %v: outer Get %v, inner Get %v", afterLanding, err, innerErr)
		}
		if !bytes.Equal(outer, a) || !bytes.Equal(inner, b) {
			t.Fatalf("afterLanding %v: outer Get's bytes right %v, inner's %v",
				afterLanding, bytes.Equal(outer, a), bytes.Equal(inner, b))
		}
		if c := cds[0].Counters(); c["net_rx_landed"] != 1 {
			t.Fatalf("afterLanding %v: net_rx_landed %v, want 1 (the outer reply)", afterLanding, c["net_rx_landed"])
		}
	}
}

// TestMalformedBatchSevers: a batch the installed handler rejects (core
// rejects one carrying an op no correct peer sends) severs its sender
// with a cause naming the batch handler, goes unacknowledged, and does
// not run the after hook. On a resilient rank the same sever is the
// sender's death, typed.
func TestMalformedBatchSevers(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		cds := wireFleet(t, 2, 1<<12)
		after := false
		cds[1].SetBatchHandler(func(int, []byte) error { return errors.New("hostile op") }, noReply, func() { after = true })
		var dead error
		if resilient {
			cds[1].EnableResilience(ResilienceConfig{HeartbeatInterval: time.Minute, HeartbeatTimeout: time.Minute}, nil)
		}
		served := make(chan error, 1)
		go func() {
			served <- cds[1].WaitFor(func() bool {
				dead = cds[1].deadErr(0)
				return dead != nil
			})
		}()
		acked := false
		if err := cds[0].SendBatch(1, frames.Get(8), func() { acked = true }); err != nil {
			t.Fatal(err)
		}
		if err := cds[0].WaitFor(func() bool { return acked }); err == nil || acked {
			t.Fatalf("resilient %v: sender's wait ended with %v, acked %v; want the severed connection", resilient, err, acked)
		}
		err := <-served
		if resilient {
			var rd *RankDeadError
			if err != nil || !errors.As(dead, &rd) || rd.Rank != 0 {
				t.Fatalf("resilient target: wait %v, rank 0's death %v; want a RankDeadError", err, dead)
			}
			err = dead
		}
		if err == nil || !strings.Contains(err.Error(), "malformed batch frame: hostile op") {
			t.Fatalf("resilient %v: target's error %v, want one naming the malformed batch frame", resilient, err)
		}
		if after {
			t.Errorf("resilient %v: the after hook ran for a rejected batch", resilient)
		}
	}
}

// FuzzOneSidedHandlers sends arbitrary payloads as get, put and xor
// requests to rank 1 of a 2-rank loopback pair and holds every answer
// to a reference: a malformed or out-of-range request gets the failure
// reply and changes nothing, a well-formed one gets the reference reply
// and effect. Never a panic on the target's dispatch goroutine. Long
// put payloads exercise landing (and its decline, out of range).
func FuzzOneSidedHandlers(f *testing.F) {
	const memBytes = 2048
	cds := wireFleet(f, 2, memBytes)
	mem := cds[1].mem.(*testMem)
	shadow := make([]byte, memBytes) // what rank 1's memory must hold
	args := func(a, b uint64, data ...byte) []byte {
		p := make([]byte, 16, 16+len(data))
		putU64(p, a)
		putU64(p[8:], b)
		return append(p, data...)
	}
	f.Add(byte(0), args(0, 8))
	f.Add(byte(0), args(memBytes-600, 600))
	f.Add(byte(0), args(memBytes-8, 16))
	f.Add(byte(0), args(1<<63, 8))
	f.Add(byte(0), []byte{1, 2, 3})
	f.Add(byte(1), args(40, 0x0102030405060708))
	f.Add(byte(1), args(100, 0, bytes.Repeat([]byte{7}, 1500)...))
	f.Add(byte(1), args(memBytes-1000, 0, bytes.Repeat([]byte{9}, 1500)...))
	f.Add(byte(1), []byte{5})
	f.Add(byte(2), args(16, 0xFF))
	f.Add(byte(2), args(3, 0xFF))
	f.Add(byte(2), args(memBytes, 0xFF))
	f.Add(byte(2), []byte{})
	f.Fuzz(func(t *testing.T, which byte, payload []byte) {
		h := []uint16{hGet, hPut, hXor}[int(which)%3]
		stop := servePoll(cds[1])
		rep, err := cds[0].request(1, h, payload)
		stop()
		if err != nil {
			t.Fatal(err)
		}
		defer frames.Put(rep)
		in := func(off, n uint64) bool { return off <= memBytes && n <= memBytes-off }
		var want []byte
		switch h {
		case hGet:
			if len(payload) >= 16 {
				if off, n := u64(payload), u64(payload[8:]); in(off, n) {
					want = shadow[off : off+n]
				}
			}
		case hPut:
			want = putRefused
			if len(payload) >= 8 {
				if off, data := u64(payload), payload[8:]; in(off, uint64(len(data))) {
					copy(shadow[off:], data)
					want = nil
				}
			}
		case hXor:
			if len(payload) >= 16 {
				if off := u64(payload); off%8 == 0 && in(off, 8) {
					putU64(shadow[off:], u64(shadow[off:])^u64(payload[8:]))
					want = shadow[off : off+8]
				}
			}
		}
		if !bytes.Equal(rep, want) {
			t.Fatalf("handler %d, %d-byte payload: reply %x, want %x", h, len(payload), rep, want)
		}
		mem.mu.Lock()
		same := bytes.Equal(mem.buf, shadow)
		mem.mu.Unlock()
		if !same {
			t.Fatalf("handler %d, %d-byte payload: target memory differs from the reference", h, len(payload))
		}
	})
}
