package transport

import (
	"bytes"
	"testing"
	"time"
)

// rawFrame writes a frame header announcing n payload bytes, followed by
// payload (which may be shorter), straight onto from's connection to
// rank to — past the send queue, so a test can cut a frame anywhere.
func rawFrame(t *testing.T, from *TCPEndpoint, to int, h uint16, arg uint64, n int, payload []byte) {
	t.Helper()
	var hdr [frameHdrLen]byte
	putHeader(hdr[:], Message{To: int32(to), From: from.rank, Handler: h, Arg: arg}, n)
	rawBytes(t, from, to, append(hdr[:], payload...))
}

// rawBytes writes b straight onto from's connection to rank to.
func rawBytes(t *testing.T, from *TCPEndpoint, to int, b []byte) {
	t.Helper()
	from.mu.Lock()
	c := from.conns[to]
	from.mu.Unlock()
	if _, err := c.Write(b); err != nil {
		t.Fatal(err)
	}
}

// waitClaimed polls until ep's reader for peer is reading into the
// held reply landing.
func waitClaimed(t *testing.T, ep *TCPEndpoint, peer int) {
	t.Helper()
	s := ep.sites[peer]
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		busy := s.reply.busy
		s.mu.Unlock()
		if busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the reader never claimed the landing")
		}
	}
}

// TestReplyLanding: a long reply that matches the armed landing — token
// and length — is read into its destination and delivered with Landed
// and no payload; one that does not takes the pooled path and leaves
// the destination alone. SendLong's two parts arrive as one payload.
func TestReplyLanding(t *testing.T) {
	eps := mesh(t, 2)
	var got []Message
	eps[0].Register(9, func(_ *TCPEndpoint, m Message) {
		m.Payload = append([]byte(nil), m.Payload...)
		got = append(got, m)
	})
	p := make([]byte, 4000)
	for i := range p {
		p[i] = byte(i * 13)
	}
	cases := []struct {
		name   string
		arg    uint64 // the reply's; the landing is armed for 77
		dstLen int
		lands  bool
	}{
		{"another token", 78, len(p), false},
		{"another length", 77, len(p) - 8, false},
		{"the armed reply", 77, len(p), true},
	}
	for i, c := range cases {
		dst := make([]byte, c.dstLen)
		if !eps[0].ArmLanding(1, 9, 77, dst) {
			t.Fatalf("%s: a free landing refused", c.name)
		}
		if err := eps[1].SendLong(Message{To: 0, Handler: 9, Arg: c.arg, Payload: p[:8]}, p[8:]); err != nil {
			t.Fatal(err)
		}
		eps[1].Flush()
		if err := eps[0].WaitFor(func() bool { return len(got) == i+1 }); err != nil {
			t.Fatal(err)
		}
		landed, m := eps[0].DisarmLanding(1, 9, 77), got[i]
		if c.lands {
			if !landed || m.Landed != int32(len(p)) || len(m.Payload) != 0 || !bytes.Equal(dst, p) {
				t.Fatalf("%s: landed %v, Landed %d, %d payload bytes, destination intact %v",
					c.name, landed, m.Landed, len(m.Payload), bytes.Equal(dst, p))
			}
		} else if landed || m.Landed != 0 || !bytes.Equal(m.Payload, p) || !bytes.Equal(dst, make([]byte, len(dst))) {
			t.Fatalf("%s: landed %v, Landed %d, payload intact %v", c.name, landed, m.Landed, bytes.Equal(m.Payload, p))
		}
	}
	if c := eps[0].Counters(); c["net_rx_landed"] != 1 || c["net_rx_frames"] != 3 {
		t.Fatalf("net_rx_landed %v, net_rx_frames %v, want 1 and 3", c["net_rx_landed"], c["net_rx_frames"])
	}
}

// TestReplyLandingAbandonedMidFrame: the peer sends the header and a
// quarter of a reply that matches the armed landing, then stalls.
// DisarmLanding, called while the reader is reading into the
// destination, must wait it out — it returns only once the peer's death
// ends the read, reports no landing, and from then on nothing writes
// the destination. CI runs it -race -count=20.
func TestReplyLandingAbandonedMidFrame(t *testing.T) {
	eps := mesh(t, 2)
	p := bytes.Repeat([]byte{0x5A}, 4000)
	dst := make([]byte, len(p))
	if !eps[0].ArmLanding(1, 9, 77, dst) {
		t.Fatal("a free landing refused")
	}
	rawFrame(t, eps[1], 0, 9, 77, len(p), p[:1000])
	waitClaimed(t, eps[0], 1)
	disarmed := make(chan bool)
	go func() { disarmed <- eps[0].DisarmLanding(1, 9, 77) }()
	select {
	case <-disarmed:
		t.Fatal("DisarmLanding returned while the reader was still reading into the destination")
	case <-time.After(20 * time.Millisecond):
	}
	eps[1].Abort() // the peer dies mid-frame
	if <-disarmed {
		t.Fatal("a torn reply reported as landed")
	}
	if !bytes.Equal(dst[:1000], p[:1000]) {
		t.Fatal("the part that arrived is not in the destination")
	}
	for i := range dst {
		dst[i] = 0xEE
	}
	eps[0].Close() // waits for the reader goroutines
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, len(dst))) {
		t.Fatal("the destination was written after DisarmLanding returned")
	}
}

// TestReplyLandingHeld: a peer's reply landing is its armer's until the
// armer disarms it — the case of a blocked Get whose wait runs a task
// body that reads from the same peer. While the outer landing is armed
// and waiting, being read into, or holding its landed reply, the inner
// requester's ArmLanding is refused, its DisarmLanding reports false
// without waiting or touching the slot, and its long reply takes the
// pooled path. The outer reply lands whole and is reported landed; the
// inner destination is never written.
func TestReplyLandingHeld(t *testing.T) {
	eps := mesh(t, 2)
	var got []Message
	eps[0].Register(9, func(_ *TCPEndpoint, m Message) {
		m.Payload = append([]byte(nil), m.Payload...)
		got = append(got, m)
	})
	outer := bytes.Repeat([]byte{0x0A}, 4000)
	inner := bytes.Repeat([]byte{0x0B}, 4000)
	frame := func(arg uint64, p []byte) []byte {
		hdr := make([]byte, frameHdrLen, frameHdrLen+len(p))
		putHeader(hdr, Message{To: 0, From: 1, Handler: 9, Arg: arg}, len(p))
		return append(hdr, p...)
	}
	received := func(n int) {
		t.Helper()
		if err := eps[0].WaitFor(func() bool { return len(got) == n }); err != nil {
			t.Fatal(err)
		}
	}
	for i, state := range []string{"armed", "busy", "landed"} {
		got = got[:0]
		dst, innerDst := make([]byte, len(outer)), make([]byte, len(inner))
		if !eps[0].ArmLanding(1, 9, 77, dst) {
			t.Fatalf("%s: a free landing refused", state)
		}
		var rest []byte // what completes the outer reply on the wire
		switch state {
		case "armed":
			rest = frame(77, outer)
		case "busy":
			rawFrame(t, eps[1], 0, 9, 77, len(outer), outer[:1000])
			waitClaimed(t, eps[0], 1)
			rest = outer[1000:]
		case "landed":
			rawFrame(t, eps[1], 0, 9, 77, len(outer), outer)
			received(1)
		}

		// The nested requester.
		if eps[0].ArmLanding(1, 9, 78, innerDst) {
			t.Fatalf("%s: a held landing was armed again", state)
		}
		if eps[0].DisarmLanding(1, 9, 78) {
			t.Fatalf("%s: another token's DisarmLanding reported a landing", state)
		}
		if state == "armed" {
			rawBytes(t, eps[1], 0, frame(78, inner)) // ahead of the outer reply
			rawBytes(t, eps[1], 0, rest)
		} else {
			rawBytes(t, eps[1], 0, append(append([]byte(nil), rest...), frame(78, inner)...))
		}
		received(2)

		var o, in Message
		for _, m := range got {
			if m.Arg == 77 {
				o = m
			} else {
				in = m
			}
		}
		if o.Landed != int32(len(outer)) || !bytes.Equal(dst, outer) {
			t.Fatalf("%s: the outer reply did not land whole (Landed %d)", state, o.Landed)
		}
		if in.Landed != 0 || !bytes.Equal(in.Payload, inner) || !bytes.Equal(innerDst, make([]byte, len(inner))) {
			t.Fatalf("%s: the inner reply did not take the pooled path (Landed %d)", state, in.Landed)
		}
		if !eps[0].DisarmLanding(1, 9, 77) {
			t.Fatalf("%s: the outer landing not reported landed", state)
		}
		if c := eps[0].Counters(); c["net_rx_landed"] != float64(i+1) {
			t.Fatalf("%s: net_rx_landed %v, want %d", state, c["net_rx_landed"], i+1)
		}
	}
	// Disarmed, the landing is free again.
	if !eps[0].ArmLanding(1, 9, 79, make([]byte, 600)) {
		t.Fatal("the landing stayed held after its holder disarmed it")
	}
	if eps[0].DisarmLanding(1, 9, 79) {
		t.Fatal("a landing nothing arrived in reported landed")
	}
}
