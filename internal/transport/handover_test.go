package transport

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// takeReadSide drives round trips from eps[0] to eps[1], which serves
// them in a WaitFor of its own, until eps[0] owns peer 1's read side;
// the server has left its wait when it returns. The span watch hands
// the side back once eps[0] stops reading it for handbackSpan, so
// callers look at own again rather than assume it.
func takeReadSide(t *testing.T, eps []*TCPEndpoint) {
	t.Helper()
	var stop atomic.Bool
	eps[1].Register(5, func(ep *TCPEndpoint, m Message) {
		if err := ep.Send(Message{To: 0, Handler: 6, Arg: m.Arg}); err != nil {
			t.Error(err)
		}
	})
	var pongs uint64
	eps[0].Register(6, func(*TCPEndpoint, Message) { pongs++ })
	served := make(chan error, 1)
	go func() { served <- eps[1].WaitFor(stop.Load) }()
	for i := uint64(1); eps[0].rxs[1].own.Load() != rxRank; i++ {
		if i > 1000 {
			t.Fatal("rank 0 never took peer 1's read side")
		}
		if err := eps[0].Send(Message{To: 1, Handler: 5, Arg: i}); err != nil {
			t.Fatal(err)
		}
		if err := eps[0].WaitFor(func() bool { return pongs == i }); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	eps[1].Wake()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// eventually polls cond every millisecond for up to 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// waitIn runs ep.WaitFor(pred) on a goroutine of its own, as the rank,
// and returns what it returns.
func waitIn(ep *TCPEndpoint, pred func() bool) <-chan error {
	done := make(chan error, 1)
	go func() { done <- ep.WaitFor(pred) }()
	return done
}

// returnsWithin fails the test unless done yields within 5 s; it
// returns the error WaitFor returned.
func returnsWithin(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: WaitFor still blocked after 5 s", what)
		return nil
	}
}

// TestWakeInterruptsDirectRead: a rank parked in a read of its affinity
// peer's socket — not on its inbox — is released by each of the things
// that used to reach it through the inbox alone: a Wake from another
// goroutine, the periodic tick (on a mesh built with one), and Close.
// CI runs it -race -count=20.
func TestWakeInterruptsDirectRead(t *testing.T) {
	eps := mesh(t, 2)
	takeReadSide(t, eps)
	parked := func() bool { return eps[0].direct.Load() == 1 }

	var flag atomic.Bool
	done := waitIn(eps[0], flag.Load)
	eventually(t, "the rank never parked in its peer's socket", parked)
	flag.Store(true)
	eps[0].Wake()
	if err := returnsWithin(t, "Wake", done); err != nil {
		t.Fatal(err)
	}

	var ticks atomic.Int64
	teps := meshWith(t, 2, func(i int) Options {
		if i != 0 {
			return Options{}
		}
		return Options{TickEvery: 5 * time.Millisecond, Tick: func() { ticks.Add(1) }}
	})
	takeReadSide(t, teps)
	start := ticks.Load()
	done = waitIn(teps[0], func() bool { return ticks.Load() >= start+3 })
	eventually(t, "the rank never parked in its peer's socket between ticks",
		func() bool { return teps[0].direct.Load() == 1 })
	if err := returnsWithin(t, "tick", done); err != nil {
		t.Fatal(err)
	}

	takeReadSide(t, eps)
	done = waitIn(eps[0], func() bool { return false })
	eventually(t, "the rank never parked in its peer's socket", parked)
	eps[0].Close()
	if err := returnsWithin(t, "Close", done); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitFor after Close = %v, want ErrClosed", err)
	}
}

// TestHandoverMidFrame hands a read side over while a 32 KiB frame is
// half read, each way: the rank leaves its wait mid-frame and the span
// watch gives the side to the reader goroutine, which finishes the
// frame; then the reader is half way into the next one when the rank
// asks for the side, and the rank finishes it. With a reply landing
// armed the payload lands in it, without one it takes the pooled path;
// either way the frames arrive whole and in order, and each long frame
// lands exactly once or not at all. CI runs it -race -count=20.
func TestHandoverMidFrame(t *testing.T) {
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("landing armed %v", armed), func(t *testing.T) {
			eps := mesh(t, 2)
			type rxd struct {
				arg     uint64
				landed  int32
				payload []byte
			}
			var got []rxd
			eps[0].Register(9, func(_ *TCPEndpoint, m Message) {
				got = append(got, rxd{m.Arg, m.Landed, append([]byte(nil), m.Payload...)})
			})
			takeReadSide(t, eps)
			rx := eps[0].rxs[1]
			long := make([]byte, 32<<10)
			for i := range long {
				long[i] = byte(i*7 + 3)
			}
			tail := []byte("in order")
			half := len(long) / 2
			// send writes a long frame's first half; the rest and a short
			// frame behind it follow later, by rest.
			send := func(arg uint64) (rest func()) {
				rawFrame(t, eps[1], 0, 9, arg, len(long), long[:half])
				return func() {
					var hdr [frameHdrLen]byte
					putHeader(hdr[:], Message{To: 0, From: 1, Handler: 9, Arg: arg + 1}, len(tail))
					rawBytes(t, eps[1], 0, append(append(append([]byte(nil), long[half:]...), hdr[:]...), tail...))
				}
			}
			check := func(step string, arg uint64, dst []byte) {
				t.Helper()
				if len(got) != 2 || got[0].arg != arg || got[1].arg != arg+1 {
					t.Fatalf("%s: frames %v, want args %d then %d", step, got, arg, arg+1)
				}
				body := got[0].payload
				if armed {
					if got[0].landed != int32(len(long)) || len(body) != 0 || !eps[0].DisarmLanding(1, 9, arg) {
						t.Fatalf("%s: Landed %d with %d payload bytes: the armed reply did not land", step, got[0].landed, len(body))
					}
					body = dst
				}
				if !bytes.Equal(body, long) || !bytes.Equal(got[1].payload, tail) {
					t.Fatalf("%s: the stream came apart across the handover", step)
				}
				got = got[:0]
			}
			arm := func(arg uint64) []byte {
				if !armed {
					return nil
				}
				dst := make([]byte, len(long))
				if !eps[0].ArmLanding(1, 9, arg, dst) {
					t.Fatal("a free landing refused")
				}
				return dst
			}
			landed0 := eps[0].Counters()["net_rx_landed"]

			// The rank reads half a frame itself and leaves its wait.
			dst := arm(77)
			var flag atomic.Bool
			done := waitIn(eps[0], flag.Load)
			eventually(t, "the rank never parked in its peer's socket", func() bool { return eps[0].direct.Load() == 1 })
			reads := rx.reads.Load()
			rest := send(77)
			eventually(t, "the rank never read the first half", func() bool { return rx.reads.Load() > reads })
			flag.Store(true)
			eps[0].Wake()
			if err := returnsWithin(t, "Wake mid-frame", done); err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatal("a half-read frame was dispatched")
			}
			// Polling only: the watch hands the side back mid-frame.
			eventually(t, "the read side never went back to the reader", func() bool { return rx.own.Load() == rxReader })
			rest()
			eventually(t, "the reader never finished the frame", func() bool { eps[0].Poll(); return len(got) == 2 })
			check("rank to reader", 77, dst)

			// The reader reads half a frame; the rank asks for the side.
			dst = arm(79)
			reads = rx.reads.Load()
			rest = send(79)
			eventually(t, "the reader never read the first half", func() bool { return rx.reads.Load() > reads })
			direct, handovers := rx.direct.Load(), rx.handovers.Load()
			done = waitIn(eps[0], func() bool { return len(got) == 2 })
			eventually(t, "the rank never took the side mid-frame", func() bool { return eps[0].direct.Load() == 1 })
			rest()
			if err := returnsWithin(t, "reader to rank", done); err != nil {
				t.Fatal(err)
			}
			check("reader to rank", 79, dst)
			if d := rx.direct.Load() - direct; d != 2 {
				t.Errorf("reader to rank: the rank read %d frames itself, want 2", d)
			}
			if h := rx.handovers.Load() - handovers; h < 1 {
				t.Errorf("reader to rank: %d handovers, want at least the grant", h)
			}
			want := 0.0
			if armed {
				want = 2
			}
			if l := eps[0].Counters()["net_rx_landed"] - landed0; l != want {
				t.Errorf("net_rx_landed grew by %v over the two long frames, want %v", l, want)
			}
		})
	}
}

// TestFloodBothWaysNoWait: two ranks that own each other's read sides
// each queue 8 MiB — more than the socket buffers hold — before either
// waits, so both sit in writes that only the other's reading can
// finish. The inline flush hands the read side back to the reader
// goroutine first, and both floods arrive whole and in order. CI runs
// it -race -count=20.
func TestFloodBothWaysNoWait(t *testing.T) {
	eps := mesh(t, 2)
	takeReadSide(t, eps)
	const frames, size = 128, 64 << 10 // 8 MiB each way
	var next [2]atomic.Uint64
	for i, ep := range eps {
		ep.Register(7, func(_ *TCPEndpoint, m Message) {
			if m.Arg != next[i].Load() || len(m.Payload) != size || m.Payload[size-1] != byte(m.Arg) {
				t.Errorf("rank %d: frame %d (%d bytes) out of order or torn, want frame %d", i, m.Arg, len(m.Payload), next[i].Load())
			}
			next[i].Add(1)
		})
	}
	done := make(chan error, 2)
	for i, ep := range eps {
		go func() {
			flood := make([]byte, frames*size) // borrowed by Send until shipped
			for f := uint64(0); f < frames; f++ {
				p := flood[f*size : (f+1)*size]
				p[size-1] = byte(f)
				if err := ep.Send(Message{To: int32(1 - i), Handler: 7, Arg: f, Payload: p}); err != nil {
					done <- err
					return
				}
			}
			done <- ep.WaitFor(func() bool { return next[i].Load() == frames })
		}()
	}
	for range eps {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("the floods did not finish within 30 s: %d and %d of %d frames arrived",
				next[0].Load(), next[1].Load(), frames)
		}
	}
}

// TestPollOnlyLoopSeesOwnedPeer: a rank that owns its peer's read side
// and then only polls — it never parks to read the socket — still gets
// the peer's frames: its empty Polls hand the side back to the reader
// goroutine, which delivers to the inbox Poll drains. And a rank that
// neither polls nor waits has the side taken back by the span watch,
// so the frames are in the inbox when it next polls. CI runs it -race
// -count=20.
func TestPollOnlyLoopSeesOwnedPeer(t *testing.T) {
	eps := mesh(t, 2)
	var got atomic.Int64
	eps[0].Register(7, func(*TCPEndpoint, Message) { got.Add(1) })
	rx := eps[0].rxs[1]
	// pollFor polls rank 0 until the n-th frame arrives, within a bound
	// that leaves a loaded runner room.
	pollFor := func(n int64) {
		t.Helper()
		start := time.Now()
		for got.Load() < n {
			eps[0].Poll()
			runtime.Gosched()
			if time.Since(start) > 10*time.Second {
				t.Fatal("a polling rank never saw its affinity peer's frame")
			}
		}
		if d, bound := time.Since(start), 100*handbackSpan; d > bound {
			t.Errorf("the frame took %v to reach a polling rank, want within %v", d, bound)
		}
	}
	send := func() {
		t.Helper()
		if err := eps[1].Send(Message{To: 0, Handler: 7}); err != nil {
			t.Fatal(err)
		}
		eps[1].Flush()
	}

	takeReadSide(t, eps)
	direct := rx.direct.Load()
	send()
	pollFor(1)
	if rx.own.Load() != rxReader || rx.direct.Load() != direct {
		t.Errorf("a polling rank kept its peer's read side (own %d, %d frames read itself)",
			rx.own.Load(), rx.direct.Load()-direct)
	}

	takeReadSide(t, eps)
	eventually(t, "the side never went back to the reader while the rank computed",
		func() bool { return rx.own.Load() == rxReader })
	direct = rx.direct.Load()
	send()
	pollFor(2)
	if rx.direct.Load() != direct {
		t.Error("a handed-back side was read by the rank")
	}
}

// TestPollBeforeParkKeepsReadSide: the polls a wait makes before it
// parks (the hier conduit's poll phase) cast no vote, so a rank that
// owns its peer's read side keeps its affinity through any number of
// empty ones; a plain empty Poll still votes, and affinityVotes of
// them hand the side back. CI runs it -race -count=20.
func TestPollBeforeParkKeepsReadSide(t *testing.T) {
	eps := mesh(t, 2)
	takeReadSide(t, eps)
	for i := 0; i < 10*affinityVotes; i++ {
		eps[0].PollBeforePark()
	}
	if aff := eps[0].aff; aff != 1 {
		t.Fatalf("after %d empty polls before a park the affinity peer is %d, want 1", 10*affinityVotes, aff)
	}
	for i := 0; i < affinityVotes; i++ {
		eps[0].Poll()
	}
	if aff := eps[0].aff; aff != -1 {
		t.Errorf("after %d empty Polls the affinity peer is %d, want none", affinityVotes, aff)
	}
	if own := eps[0].rxs[1].own.Load(); own != rxReader {
		t.Errorf("after the affinity dropped, peer 1's read side is in state %d, want the reader's (%d)", own, rxReader)
	}
}
