package gasnet

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/transport"
)

// opLog is an agg.Applier over a 64-byte memory that records every op
// it accepts, and refuses what a segment of that size would refuse —
// the reference FuzzBatchReply holds the conduit to.
type opLog struct {
	ops []string
}

const opLogMem = 64

func (l *opLog) Put(off uint64, data []byte) error {
	if off > opLogMem || uint64(len(data)) > opLogMem-off {
		return errors.New("put outside memory")
	}
	l.ops = append(l.ops, fmt.Sprintf("put %d %x", off, data))
	return nil
}

func (l *opLog) Xor64(off, val uint64) error {
	if off%8 != 0 || off+8 > opLogMem {
		return errors.New("xor unaligned or outside memory")
	}
	l.ops = append(l.ops, fmt.Sprintf("xor %d %x", off, val))
	return nil
}

func (l *opLog) AM(id uint16, run agg.Run) (int, error) {
	if id < 0x10 {
		return 0, errors.New("reserved handler")
	}
	n := run.Len()
	for run.Len() > 0 {
		l.ops = append(l.ops, fmt.Sprintf("am %d %x %x", id, run.Hdr, run.Next()))
	}
	return n, nil
}

// FuzzBatchReply hands arbitrary bytes to rank 0 as the acknowledgement
// of a batch it has outstanding at rank 1 — the reply an ack may carry,
// which rank 0 decodes with its batch applier. Bytes that decode and
// apply must take the reference effect; anything else must sever rank 1
// with a cause naming the reply handler. Either way the batch completes
// exactly once — the reply first, then onAck, then the after hook — and
// never a panic.
func FuzzBatchReply(f *testing.F) {
	enc := agg.New(2, agg.Config{}, func(int, []byte, int, func()) {})
	reply := func(ops func()) []byte {
		ops()
		return enc.TakeReply(1)
	}
	f.Add([]byte{})
	f.Add(reply(func() {
		enc.Put(1, 8, []byte("hello"), nil)
		enc.Xor64(1, 16, 0xABCD, nil)
		enc.Send(1, 0x40, []byte("answer"), nil)
	}))
	f.Add(reply(func() { enc.Put(1, 60, []byte("far"), nil) })) // a put over the memory's end
	f.Add(reply(func() { enc.Xor64(1, 3, 1, nil) }))            // an unaligned xor
	f.Add(reply(func() { enc.Send(1, 0x03, nil, nil) }))        // a reserved handler
	f.Add([]byte{1, 0, 0})                                      // a truncated put
	f.Add([]byte{0xFF})                                         // an unknown op kind
	f.Fuzz(func(t *testing.T, payload []byte) {
		tep, err := transport.ListenTCP(0, 2, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := NewWireConduit(tep, newTestMem(opLogMem), WireConfig{})
		defer c.Close()
		got := &opLog{}
		var order []string
		c.SetBatchHandler(func(from int, p []byte) error {
			if from != 1 {
				t.Errorf("reply applied as from rank %d, want 1", from)
			}
			order = append(order, "reply")
			_, err := agg.Apply(p, got)
			return err
		}, noReply, func() { order = append(order, "after") })
		x := c.newReq(hBatch, 1, 1, 0, nil)
		x.onAck = func() { order = append(order, "ack") }
		tok := x.tok
		c.acks[tok] = x
		x.n, x.left = 1, 1

		c.onReply(transport.Message{From: 1, To: 0, Handler: hReply, Arg: tok, Payload: payload})

		want := &opLog{}
		_, refErr := agg.Apply(payload, want)
		if sever := tep.Err(); refErr != nil {
			if sever == nil || !strings.Contains(sever.Error(), "malformed reply frame") {
				t.Fatalf("%d-byte reply %x (%v): sender not severed for a malformed reply (endpoint error %v)",
					len(payload), payload, refErr, sever)
			}
		} else if sever != nil {
			t.Fatalf("%d-byte reply %x: a well-formed reply severed its sender: %v", len(payload), payload, sever)
		}
		// A rejected reply stops at its first bad op: the ops before it
		// applied, as in the reference.
		if !slices.Equal(got.ops, want.ops) {
			t.Fatalf("%d-byte reply %x: applied %q, reference %q", len(payload), payload, got.ops, want.ops)
		}
		steps := []string{"ack", "after"}
		if len(payload) > 0 {
			steps = append([]string{"reply"}, steps...)
		}
		if !slices.Equal(order, steps) {
			t.Fatalf("%d-byte reply: batch completion ran %q, want %q", len(payload), order, steps)
		}
		if _, held := c.acks[tok]; held {
			t.Fatal("batch token still outstanding after its ack")
		}
	})
}

// TestHeartbeatFoldsHeardOnTick pins the failure detector with no clock
// read per received frame: a frame only sets its peer's heard flag, and
// the tick folds the flags into the last-heard times. A silent peer is
// still pinged once the interval has passed and declared dead within
// HeartbeatTimeout plus one tick of the ping; a peer that keeps sending
// is never pinged.
func TestHeartbeatFoldsHeardOnTick(t *testing.T) {
	const interval, timeout = 20 * time.Millisecond, 100 * time.Millisecond
	const tick = interval / 4
	// slack absorbs the scheduling of the waiting goroutine.
	const slack = 25 * time.Millisecond
	rc := ResilienceConfig{HeartbeatInterval: interval, HeartbeatTimeout: timeout}

	// Rank 0 alone watches; its peer talks or stays silent.
	watched := func(t *testing.T) []*WireConduit {
		return wireFleetOf(t, 2, func(i int) (Memory, WireConfig) {
			if i == 0 {
				return newTestMem(64), WireConfig{Resilience: &rc}
			}
			return newTestMem(64), WireConfig{}
		})
	}

	t.Run("silent peer", func(t *testing.T) {
		start := time.Now() // silence starts when the conduits are built
		cds := watched(t)   // rank 1 never dispatches: the ping goes unanswered
		var died time.Time
		cds[0].OnRankDeath(func(int) { died = time.Now() })
		var pinged time.Time
		if err := cds[0].WaitFor(func() bool {
			if pinged.IsZero() && cds[0].pingOut[1] {
				pinged = time.Now()
			}
			return cds[0].isDead(1)
		}); err != nil {
			t.Fatal(err)
		}
		if pinged.IsZero() || died.IsZero() {
			t.Fatalf("pinged at %v, declared dead at %v", pinged, died)
		}
		if d := pinged.Sub(start); d < interval || d > interval+tick+slack {
			t.Errorf("pinged %v after going silent, want within (%v, %v]", d, interval, interval+tick)
		}
		if d := died.Sub(pinged); d < timeout || d > timeout+tick+slack {
			t.Errorf("declared dead %v after the ping, want within [%v, %v]", d, timeout, timeout+tick)
		}
	})

	t.Run("talking peer", func(t *testing.T) {
		cds := watched(t)
		cds[0].OnRankDeath(func(r int) { t.Errorf("rank %d declared dead while talking", r) })
		const talk = 15 * interval
		talked := make(chan error, 1)
		go func() {
			var err error
			for end := time.Now().Add(talk); err == nil && time.Now().Before(end); time.Sleep(tick) {
				err = cds[1].Put(0, 0, []byte{1})
			}
			talked <- err
		}()
		var done error
		finished := false
		if err := cds[0].WaitFor(func() bool {
			select {
			case done = <-talked:
				finished = true
			default:
			}
			return finished
		}); err != nil {
			t.Fatal(err)
		}
		if done != nil {
			t.Fatal(done)
		}
		if n := cds[0].Counters()["wire_tx_frames_ping"]; n != 0 {
			t.Errorf("pinged a peer that sent a frame every %v %v times over %v", tick, n, talk)
		}
	})
}
