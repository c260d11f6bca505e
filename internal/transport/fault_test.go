package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/fault"
)

// meshWith is mesh with each endpoint connected under opts(i) (nil:
// zero Options), so fault injectors, peer-down handlers and ticks are
// fixed before any traffic.
func meshWith(t testing.TB, n int, opts func(i int) Options) []*TCPEndpoint {
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
			var o Options
			if opts != nil {
				o = opts(i)
			}
			errs[i] = ep.ConnectBy(addrs, time.Time{}, o)
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

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInjectedDropSkipsFrame: a drop rule swallows exactly the frame
// its op-count names; the stream stays intact around it.
func TestInjectedDropSkipsFrame(t *testing.T) {
	plan := mustPlan(t, "drop:rank=0,peer=1,handler=3,op=2")
	eps := meshWith(t, 2, func(i int) Options { return Options{Fault: plan.ForRank(i)} })
	var got []uint64
	var mu sync.Mutex
	eps[1].Register(3, func(_ *TCPEndpoint, m Message) {
		mu.Lock()
		got = append(got, m.Arg)
		mu.Unlock()
	})
	for i := 1; i <= 3; i++ {
		if err := eps[0].Send(Message{To: 1, Handler: 3, Arg: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	eps[0].Flush()
	if err := eps[1].WaitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("delivered %v, want [1 3] (frame 2 dropped)", got)
	}
}

// TestInjectedDelayStallsFrame: a delay rule holds its frame at least
// the configured duration.
func TestInjectedDelayStallsFrame(t *testing.T) {
	const stall = 60 * time.Millisecond
	plan := mustPlan(t, "delay:rank=0,peer=1,op=1,delay=60ms")
	eps := meshWith(t, 2, func(i int) Options { return Options{Fault: plan.ForRank(i)} })
	var hit atomic.Bool
	eps[1].Register(3, func(_ *TCPEndpoint, m Message) { hit.Store(true) })
	start := time.Now()
	if err := eps[0].Send(Message{To: 1, Handler: 3, Arg: 1}); err != nil {
		t.Fatal(err)
	}
	eps[0].Flush()
	if err := eps[1].WaitFor(hit.Load); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("frame arrived after %v, want >= %v", elapsed, stall)
	}
}

// TestMidFrameSeverSurvivable: an injected mid-frame sever retires
// exactly one peer link on a survivable mesh. The victim observes the
// unexpected-EOF cause through its peer-down handler, both sides fail
// fast with typed errors on further sends across the cut, and traffic
// to third ranks keeps flowing.
func TestMidFrameSeverSurvivable(t *testing.T) {
	plan := mustPlan(t, "sever:rank=0,peer=1,handler=3,op=1")
	type downEv struct {
		peer  int
		cause error
	}
	downs := make([]*downEv, 3) // each written by its rank's peer-down handler
	eps := meshWith(t, 3, func(i int) Options {
		return Options{Fault: plan.ForRank(i), PeerDown: func(peer int, cause error) {
			if downs[i] == nil {
				downs[i] = &downEv{peer, cause}
			}
		}}
	})
	// The send that fires the sever rule: header goes out, payload never
	// does, connection closes.
	err := eps[0].Send(Message{To: 1, Handler: 3, Payload: []byte("never arrives")})
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("severing Send = %v, want ErrPeerDown", err)
	}
	// Rank 1 sees the mid-frame cut as peer loss from rank 0, delivered
	// through its peer-down handler while the endpoint survives.
	if err := eps[1].WaitFor(func() bool { return downs[1] != nil }); err != nil {
		t.Fatalf("rank 1 never observed peer loss: %v", err)
	}
	ev := *downs[1]
	if ev.peer != 0 {
		t.Fatalf("rank 1 peer-down from %d, want 0", ev.peer)
	}
	// The header announced a payload that never came: the reader's
	// parser reports the cut as an unexpected EOF, not a clean one.
	if !errors.Is(ev.cause, io.ErrUnexpectedEOF) {
		t.Fatalf("rank 1 peer-down cause = %v, want io.ErrUnexpectedEOF", ev.cause)
	}
	// Both survivors keep full connectivity to rank 2.
	for _, from := range []int{0, 1} {
		var ok atomic.Bool
		eps[2].Register(7, func(_ *TCPEndpoint, m Message) { ok.Store(true) })
		if err := eps[from].Send(Message{To: 2, Handler: 7, Arg: 1}); err != nil {
			t.Fatalf("rank %d -> 2 after sever: %v", from, err)
		}
		eps[from].Flush()
		if err := eps[2].WaitFor(ok.Load); err != nil {
			t.Fatal(err)
		}
	}
	// Sends across the cut fail fast and typed, in both directions.
	if err := eps[0].Send(Message{To: 1, Handler: 3}); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("rank 0 -> 1 after sever = %v, want ErrPeerDown", err)
	}
	var pde *PeerDownError
	err = eps[1].Send(Message{To: 0, Handler: 3})
	if !errors.As(err, &pde) || pde.Peer != 0 {
		t.Fatalf("rank 1 -> 0 after sever = %v, want PeerDownError{Peer: 0}", err)
	}
	if !eps[1].PeerDown(0) || eps[1].Err() != nil {
		t.Fatal("rank 1 should have retired peer 0 without endpoint teardown")
	}
}

// TestMidFrameSeverLegacyTeardown pins the default (non-survivable)
// behavior under the same injected sever: whole-endpoint teardown with
// the cause surfaced, exactly as TestPeerLossUnblocksWaiters expects
// for organic peer loss.
func TestMidFrameSeverLegacyTeardown(t *testing.T) {
	plan := mustPlan(t, "sever:rank=0,peer=1,op=1")
	eps := meshWith(t, 2, func(i int) Options { return Options{Fault: plan.ForRank(i)} })
	waitErr := make(chan error, 1)
	go func() {
		waitErr <- eps[1].WaitFor(func() bool { return false })
	}()
	if err := eps[0].Send(Message{To: 1, Handler: 3}); err == nil {
		t.Fatal("severing Send returned nil on a legacy endpoint")
	}
	err := <-waitErr
	if err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("rank 1 WaitFor = %v, want the peer-loss cause", err)
	}
	if eps[1].Err() == nil {
		t.Error("rank 1 Err() = nil after mid-frame sever")
	}
}

// TestByeThenEOFStaysClean: the EOF that follows a goodbye is orderly
// teardown — the survivor's reader exits without reporting peer loss,
// however the bye and the EOF were split across reads.
func TestByeThenEOFStaysClean(t *testing.T) {
	downed := make(chan int, 1)
	eps := meshWith(t, 2, func(int) Options {
		return Options{PeerDown: func(peer int, _ error) { downed <- peer }}
	})
	eps[0].Goodbye()
	eps[0].Close()
	// Close on rank 1 waits for its reader, which has by then seen the
	// bye and the EOF; a loss would have queued its peerDown first.
	eps[1].wg.Wait()
	eps[1].Poll()
	select {
	case p := <-downed:
		t.Fatalf("goodbye followed by EOF reported as loss of peer %d", p)
	default:
	}
	if eps[1].PeerDown(0) || eps[1].Err() != nil {
		t.Fatal("rank 1 retired a peer that said goodbye")
	}
}

// TestSeverDuringHandshake: a connection cut partway through the hello
// frame must fail Connect cleanly (no hang, no misparse).
func TestSeverDuringHandshake(t *testing.T) {
	ep, err := ListenTCP(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	connErr := make(chan error, 1)
	go func() {
		// Rank 1 of 2 dials nobody and accepts rank 0's hello.
		connErr <- ep.Connect([]string{"", ep.Addr()})
	}()
	c, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Half a hello frame, then the link dies.
	if _, err := c.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-connErr:
		if err == nil {
			t.Fatal("Connect succeeded through a severed handshake")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Connect hung on a severed handshake")
	}
}

// TestAbortLooksLikePeerLoss: Abort skips the goodbye, so survivable
// peers observe it as unannounced peer loss — the simulation seam the
// chaos harness uses for killed ranks.
func TestAbortLooksLikePeerLoss(t *testing.T) {
	downed := []int{-1, -1, -1} // each written by its rank's peer-down handler
	eps := meshWith(t, 3, func(i int) Options {
		if i == 1 {
			return Options{}
		}
		return Options{PeerDown: func(peer int, _ error) { downed[i] = peer }}
	})
	eps[1].Abort()
	for _, r := range []int{0, 2} {
		if err := eps[r].WaitFor(func() bool { return downed[r] >= 0 }); err != nil {
			t.Fatalf("rank %d never observed the aborted rank: %v", r, err)
		}
		if downed[r] != 1 {
			t.Fatalf("rank %d: peer-down for rank %d, want 1", r, downed[r])
		}
		if err := eps[r].Err(); err != nil {
			t.Fatalf("rank %d: survivable endpoint tore down on Abort: %v", r, err)
		}
	}
}

// TestTickRunsWhileBlocked: an installed tick keeps firing while the
// endpoint sits in a blocking WaitFor — the progress guarantee the
// heartbeat layer is built on.
func TestTickRunsWhileBlocked(t *testing.T) {
	var ticks atomic.Int64
	eps := meshWith(t, 2, func(int) Options {
		return Options{TickEvery: 5 * time.Millisecond, Tick: func() { ticks.Add(1) }}
	})
	if err := eps[0].WaitFor(func() bool { return ticks.Load() >= 3 }); err != nil {
		t.Fatal(err)
	}
}

// TestTickOneFiringWhileAway: the timer is one-shot and re-armed by the
// dispatch goroutine, so a rank that stays away from its endpoint for
// many periods comes back to exactly one due tick, not a backlog — and
// the tick then resumes. The period is long enough that the Poll which
// runs the due tick cannot also see the re-armed timer fire unless it
// is descheduled for a whole period (at 1 ms it was, in 16 of 300 runs
// beside a parallel go test).
func TestTickOneFiringWhileAway(t *testing.T) {
	const period = 10 * time.Millisecond
	var ticks atomic.Int64
	eps := meshWith(t, 2, func(i int) Options {
		if i != 0 {
			return Options{}
		}
		return Options{TickEvery: period, Tick: func() { ticks.Add(1) }}
	})
	for away := time.Now().Add(20 * period); time.Now().Before(away); {
		runtime.Gosched() // computing: no Poll, no WaitFor
	}
	eps[0].Poll()
	if got := ticks.Load(); got != 1 {
		t.Fatalf("%d ticks after 20 periods away, want exactly 1", got)
	}
	if err := eps[0].WaitFor(func() bool { return ticks.Load() >= 3 }); err != nil {
		t.Fatal(err)
	}
}

// TestReservedHandlerFromWire: a frame from the wire that names a
// reserved handler id — hello after the handshake, or peer-down or wake,
// which only the endpoint itself may synthesize — is a framing error.
// The sender is lost with a cause naming the id, after every frame it
// sent before, and nothing it sent after is dispatched.
func TestReservedHandlerFromWire(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    uint16
	}{{"hello", helloHandler}, {"peer-down", peerDownHandler}, {"wake", wakeHandler}} {
		t.Run(tc.name, func(t *testing.T) {
			ep, err := ListenTCP(1, 2, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			var down error
			survivable := Options{PeerDown: func(peer int, cause error) {
				if down == nil {
					down = fmt.Errorf("peer %d: %w", peer, cause)
				}
			}}
			var got []uint64
			ep.Register(7, func(_ *TCPEndpoint, m Message) { got = append(got, m.Arg) })
			connErr := make(chan error, 1)
			go func() { connErr <- ep.ConnectBy([]string{"", ep.Addr()}, time.Time{}, survivable) }()

			// Rank 0, played by the test: the hello, a frame, the hostile
			// frame mid-stream, a frame behind it — then the link closes,
			// which would be the only loss if the hostile frame passed.
			c, err := net.Dial("tcp", ep.Addr())
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			for _, m := range []Message{
				{From: 0, To: 1, Handler: helloHandler},
				{To: 1, Handler: 7, Arg: 1},
				{To: 1, Handler: tc.h, Payload: []byte("hostile")},
				{To: 1, Handler: 7, Arg: 2},
			} {
				if err := writeFrame(&raw, m); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Write(raw.Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := <-connErr; err != nil {
				t.Fatal(err)
			}
			c.Close()
			if err := ep.WaitFor(func() bool { return down != nil }); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("peer 0: transport: rank 1: rank 0 sent a frame with reserved handler id %#x", tc.h); down.Error() != want {
				t.Errorf("peer-down cause %q, want %q", down, want)
			}
			if len(got) != 1 || got[0] != 1 {
				t.Errorf("dispatched frames %v, want [1]: only what preceded the hostile frame", got)
			}
		})
	}
}
