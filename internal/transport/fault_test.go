package transport

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/fault"
)

// meshWith is mesh with a pre-Connect setup hook per endpoint, so fault
// injectors and peer-down handlers are installed before any traffic.
func meshWith(t *testing.T, n int, setup func(i int, ep *TCPEndpoint)) []*TCPEndpoint {
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
		if setup != nil {
			setup(i, ep)
		}
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
	eps := meshWith(t, 2, func(i int, ep *TCPEndpoint) {
		ep.SetFault(plan.ForRank(i))
	})
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
	eps := meshWith(t, 2, func(i int, ep *TCPEndpoint) {
		ep.SetFault(plan.ForRank(i))
	})
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
	downs := make([]chan downEv, 3)
	eps := meshWith(t, 3, func(i int, ep *TCPEndpoint) {
		ep.SetFault(plan.ForRank(i))
		ch := make(chan downEv, 4)
		downs[i] = ch
		ep.SetPeerDownHandler(func(peer int, cause error) {
			ch <- downEv{peer, cause}
		})
	})
	// The send that fires the sever rule: header goes out, payload never
	// does, connection closes.
	err := eps[0].Send(Message{To: 1, Handler: 3, Payload: []byte("never arrives")})
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("severing Send = %v, want ErrPeerDown", err)
	}
	// Rank 1 sees the mid-frame cut as peer loss from rank 0, delivered
	// through its peer-down handler while the endpoint survives.
	var ev downEv
	waitDown := func(rank int) downEv {
		t.Helper()
		var got downEv
		done := make(chan struct{})
		go func() {
			defer close(done)
			got = <-downs[rank]
		}()
		// Drive rank's dispatch loop until the handler ran.
		deadline := time.Now().Add(5 * time.Second)
		for {
			select {
			case <-done:
				return got
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never observed peer loss", rank)
			}
			eps[rank].Poll()
			time.Sleep(time.Millisecond)
		}
	}
	ev = waitDown(1)
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
	eps := meshWith(t, 2, func(i int, ep *TCPEndpoint) {
		ep.SetFault(plan.ForRank(i))
	})
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
	eps := meshWith(t, 2, func(i int, ep *TCPEndpoint) {
		ep.SetPeerDownHandler(func(peer int, _ error) { downed <- peer })
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
	downed := make(chan int, 4)
	eps := meshWith(t, 3, func(i int, ep *TCPEndpoint) {
		if i != 1 {
			ep.SetPeerDownHandler(func(peer int, cause error) { downed <- peer })
		}
	})
	eps[1].Abort()
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case p := <-downed:
			if p != 1 {
				t.Fatalf("peer-down for rank %d, want 1", p)
			}
			if eps[0].Err() != nil && eps[2].Err() != nil {
				t.Fatal("survivable endpoints tore down on Abort")
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no peer observed the aborted rank")
		}
		eps[0].Poll()
		eps[2].Poll()
		time.Sleep(time.Millisecond)
	}
}

// TestTickRunsWhileBlocked: an installed tick keeps firing while the
// endpoint sits in a blocking WaitFor — the progress guarantee the
// heartbeat layer is built on.
func TestTickRunsWhileBlocked(t *testing.T) {
	eps := meshWith(t, 2, nil)
	var ticks atomic.Int64
	eps[0].SetTick(5*time.Millisecond, func() { ticks.Add(1) })
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
	eps := meshWith(t, 2, nil)
	const period = 10 * time.Millisecond
	var ticks atomic.Int64
	eps[0].SetTick(period, func() { ticks.Add(1) })
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
