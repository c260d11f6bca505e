package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// mesh spins up n endpoints over localhost and wires the full mesh.
func mesh(t testing.TB, n int) []*TCPEndpoint {
	t.Helper()
	eps := make([]*TCPEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := ListenTCP(i, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep *TCPEndpoint) {
			defer wg.Done()
			errs[i] = ep.Connect(addrs)
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(to, from int32, h uint16, arg uint64, payload []byte) bool {
		var buf bytes.Buffer
		in := Message{To: to, From: from, Handler: h, Arg: arg, Payload: payload}
		if err := writeFrame(&buf, in); err != nil {
			return false
		}
		out, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return out.To == to && out.From == from && out.Handler == h &&
			out.Arg == arg && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingOverTCP(t *testing.T) {
	const n = 4
	eps := mesh(t, n)
	var received [n]atomic.Uint64
	for i, ep := range eps {
		i := i
		ep.Register(1, func(_ *TCPEndpoint, m Message) {
			received[i].Store(m.Arg)
		})
	}
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep *TCPEndpoint) {
			defer wg.Done()
			next := int32((i + 1) % n)
			if err := ep.Send(Message{To: next, Handler: 1, Arg: uint64(100 + i)}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			if err := ep.WaitFor(func() bool { return received[i].Load() != 0 }); err != nil {
				t.Errorf("wait: %v", err)
			}
		}(i, ep)
	}
	wg.Wait()
	for i := range eps {
		prev := (i + n - 1) % n
		if got := received[i].Load(); got != uint64(100+prev) {
			t.Errorf("rank %d received %d, want %d", i, got, 100+prev)
		}
	}
}

func TestPayloadIntegrity(t *testing.T) {
	eps := mesh(t, 2)
	var got atomic.Pointer[[]byte]
	eps[1].Register(2, func(_ *TCPEndpoint, m Message) {
		p := append([]byte(nil), m.Payload...)
		got.Store(&p)
	})
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := eps[0].Send(Message{To: 1, Handler: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	eps[0].Flush() // the sender performs no further progress calls
	if err := eps[1].WaitFor(func() bool { return got.Load() != nil }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(*got.Load(), payload) {
		t.Fatal("payload corrupted in flight")
	}
}

func TestReplyChain(t *testing.T) {
	// Request/reply over the wire: the active-message shape the runtime
	// would use for remote allocation.
	eps := mesh(t, 2)
	var answer atomic.Uint64
	eps[1].Register(3, func(ep *TCPEndpoint, m Message) {
		_ = ep.Send(Message{To: m.From, Handler: 4, Arg: m.Arg * m.Arg})
	})
	eps[0].Register(4, func(_ *TCPEndpoint, m Message) { answer.Store(m.Arg) })

	done := make(chan error, 1)
	go func() {
		done <- eps[1].WaitFor(func() bool { return false }) // serve until closed
	}()
	if err := eps[0].Send(Message{To: 1, Handler: 3, Arg: 12}); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].WaitFor(func() bool { return answer.Load() != 0 }); err != nil {
		t.Fatal(err)
	}
	if answer.Load() != 144 {
		t.Fatalf("reply = %d, want 144", answer.Load())
	}
	eps[1].Close()
	if err := <-done; err != ErrClosed {
		t.Errorf("server exit = %v, want ErrClosed", err)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	eps := mesh(t, 2)
	hit := false
	eps[0].Register(5, func(_ *TCPEndpoint, m Message) { hit = m.Arg == 7 })
	if err := eps[0].Send(Message{To: 0, Handler: 5, Arg: 7}); err != nil {
		t.Fatal(err)
	}
	eps[0].Poll()
	if !hit {
		t.Fatal("loopback message not delivered")
	}
}

// ---- Error paths ----

func TestOversizedPayloadRejected(t *testing.T) {
	eps := mesh(t, 2)
	big := make([]byte, MaxPayload+1)
	err := eps[0].Send(Message{To: 1, Handler: 1, Payload: big})
	if !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("Send(%d bytes) = %v, want ErrPayloadTooLarge", len(big), err)
	}
	// The stream must still be intact: a normal message goes through.
	var ok atomic.Bool
	eps[1].Register(1, func(_ *TCPEndpoint, m Message) { ok.Store(m.Arg == 9) })
	if err := eps[0].Send(Message{To: 1, Handler: 1, Arg: 9}); err != nil {
		t.Fatal(err)
	}
	eps[0].Flush()
	if err := eps[1].WaitFor(ok.Load); err != nil {
		t.Fatal(err)
	}
	// A loopback oversized send must be rejected the same way.
	if err := eps[0].Send(Message{To: 0, Handler: 1, Payload: big}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("loopback oversized Send = %v, want ErrPayloadTooLarge", err)
	}
}

func TestOversizedFrameRejectedOnRead(t *testing.T) {
	// A corrupt (or hostile) stream announcing a giant payload must be
	// refused before any allocation, not trusted — by the reader's
	// parser and by the hello decoder alike.
	var hdr [26]byte
	binary.LittleEndian.PutUint64(hdr[18:], MaxPayload+1)
	if _, err := new(frameReader).next(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("the rx parser accepted an over-limit length header")
	}
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("readFrame accepted an over-limit length header")
	}
}

func TestClosedEndpointSends(t *testing.T) {
	eps := mesh(t, 2)
	eps[0].Close()
	if err := eps[0].Send(Message{To: 1, Handler: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("remote Send on closed endpoint = %v, want ErrClosed", err)
	}
	if err := eps[0].Send(Message{To: 0, Handler: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("loopback Send on closed endpoint = %v, want ErrClosed", err)
	}
	if err := eps[0].WaitFor(func() bool { return false }); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitFor on closed endpoint = %v, want ErrClosed", err)
	}
}

func TestPartialFrameRead(t *testing.T) {
	full := &bytes.Buffer{}
	if err := writeFrame(full, Message{To: 1, From: 0, Handler: 2, Arg: 3,
		Payload: []byte("hello, wire")}); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Every proper prefix must fail cleanly — truncated header or
	// truncated payload — never hang or misparse: the reader's parser
	// reports the cut as io.ErrUnexpectedEOF (peer loss), and only the
	// empty stream as a bare io.EOF.
	for cut := 0; cut < len(raw); cut++ {
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if _, err := new(frameReader).next(bytes.NewReader(raw[:cut])); err != want {
			t.Fatalf("rx parser on %d of %d bytes: %v, want %v", cut, len(raw), err, want)
		}
		if _, err := readFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("readFrame succeeded on %d of %d bytes", cut, len(raw))
		}
	}
	for name, decode := range map[string]func() (Message, error){
		"rx parser": func() (Message, error) { return new(frameReader).next(bytes.NewReader(raw)) },
		"readFrame": func() (Message, error) { return readFrame(bytes.NewReader(raw)) },
	} {
		if m, err := decode(); err != nil || string(m.Payload) != "hello, wire" {
			t.Fatalf("%s, full frame readback: %v %q", name, err, m.Payload)
		}
	}
}

func TestHandlerIndexOutOfRange(t *testing.T) {
	eps := mesh(t, 2)
	var ok atomic.Bool
	eps[1].Register(7, func(_ *TCPEndpoint, m Message) { ok.Store(true) })
	// Out-of-range index (the handler table has 256 slots) and an
	// unregistered in-range index: both must be dropped, not panic.
	for _, h := range []uint16{0x7FFF, 200} {
		if err := eps[0].Send(Message{To: 1, Handler: h, Arg: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eps[0].Send(Message{To: 1, Handler: 7}); err != nil {
		t.Fatal(err)
	}
	eps[0].Flush()
	if err := eps[1].WaitFor(ok.Load); err != nil {
		t.Fatal(err)
	}
	if got := eps[1].Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	// Point-to-point ordering over one TCP stream.
	eps := mesh(t, 2)
	var last atomic.Int64
	var bad atomic.Bool
	eps[1].Register(6, func(_ *TCPEndpoint, m Message) {
		if int64(m.Arg) != last.Load()+1 {
			bad.Store(true)
		}
		last.Store(int64(m.Arg))
	})
	const msgs = 500
	go func() {
		for i := 1; i <= msgs; i++ {
			if err := eps[0].Send(Message{To: 1, Handler: 6, Arg: uint64(i)}); err != nil {
				fmt.Println("send error:", err)
				return
			}
		}
		eps[0].Flush()
	}()
	if err := eps[1].WaitFor(func() bool { return last.Load() == msgs }); err != nil {
		t.Fatal(err)
	}
	if bad.Load() {
		t.Fatal("messages reordered on one stream")
	}
}

// A peer dying mid-job must surface as an error on every blocked
// operation, not a hang: the reader goroutine that sees the dropped
// connection tears the endpoint down and WaitFor/Send report the cause.
func TestPeerLossUnblocksWaiters(t *testing.T) {
	eps := mesh(t, 3)

	waitErr := make(chan error, 1)
	go func() {
		waitErr <- eps[0].WaitFor(func() bool { return false })
	}()

	eps[1].Close() // rank 1 "dies"

	err := <-waitErr
	if err == nil {
		t.Fatal("WaitFor returned nil after peer loss")
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("WaitFor = ErrClosed, want the peer-loss cause, got %v", err)
	}
	if eps[0].Err() == nil {
		t.Error("Err() = nil after peer loss")
	}
	if err := eps[0].Send(Message{To: 2, Handler: 3}); err == nil {
		t.Error("Send on a torn-down endpoint returned nil")
	}
}
