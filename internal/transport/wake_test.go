package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWakeUnblocksWaitFor is the contract the service plane builds on:
// a non-transport goroutine flips shared state, calls Wake, and a
// WaitFor blocked on that state observes it promptly — without any
// message traffic and without a tick installed.
func TestWakeUnblocksWaitFor(t *testing.T) {
	eps := mesh(t, 2)
	var flag atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- eps[0].WaitFor(flag.Load)
	}()
	// Let the waiter park, then wake it from a foreign goroutine.
	time.Sleep(20 * time.Millisecond)
	flag.Store(true)
	eps[0].Wake()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitFor: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor did not observe the flag after Wake")
	}
}

// TestWakeIsDroppedWhenIdle pins the no-op half of the contract: wakes
// issued while nobody waits must not be misrouted to a handler, leak a
// frame, or count as a drop against the unknown-handler accounting.
func TestWakeIsDroppedWhenIdle(t *testing.T) {
	eps := mesh(t, 2)
	for i := 0; i < 2000; i++ {
		eps[0].Wake() // beyond inbox capacity: the overflow path must not block
	}
	if n := eps[0].Poll(); n == 0 {
		t.Fatal("Poll dispatched no queued wakes")
	}
	if d := eps[0].Dropped(); d != 0 {
		t.Fatalf("wake frames counted as handler drops: %d", d)
	}
	// The endpoint must still carry real traffic afterwards.
	got := make(chan uint64, 1)
	eps[1].Register(7, func(_ *TCPEndpoint, m Message) { got <- m.Arg })
	if err := eps[0].Send(Message{From: 0, To: 1, Handler: 7, Arg: 42}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		eps[0].Poll()
		eps[1].Poll()
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("arg = %d, want 42", v)
			}
			return
		case <-deadline:
			t.Fatal("message after wake storm never arrived")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWakeCoalesces: however many Wakes land on a rank that is not
// polling, at most one wake message is queued — the rest find the word
// set and return — and the wake protocol still works afterwards: a
// WaitFor that has consumed the stale wake, found its predicate false
// and gone back to the inbox is woken by the next Wake.
func TestWakeCoalesces(t *testing.T) {
	eps := mesh(t, 2)
	const wakers, each = 8, 1250 // 10,000 wakes
	var wg sync.WaitGroup
	for g := 0; g < wakers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				eps[0].Wake()
			}
		}()
	}
	wg.Wait()
	if n := len(eps[0].inbox); n > 1 {
		t.Fatalf("%d messages queued after %d wakes, want at most 1", n, wakers*each)
	}
	if c := eps[0].Counters()["net_wakes_coalesced"]; c != wakers*each-1 {
		t.Errorf("net_wakes_coalesced = %v, want %d", c, wakers*each-1)
	}

	var flag atomic.Bool
	evals := make(chan struct{}, 4)
	done := make(chan error, 1)
	go func() {
		done <- eps[0].WaitFor(func() bool {
			select {
			case evals <- struct{}{}:
			default:
			}
			return flag.Load()
		})
	}()
	// Three evaluations: the ring-less entry check, the loop's first
	// look, and the one after the stale wake was dispatched; the waiter
	// then has nothing left to do but block.
	for i := 0; i < 3; i++ {
		<-evals
	}
	flag.Store(true)
	eps[0].Wake()
	if err := <-done; err != nil {
		t.Fatalf("WaitFor: %v", err)
	}
}

// TestCloseUnblocksPlainReceive: a rank blocked in WaitFor's plain
// inbox receive — no done case to select on — is reached by Close
// through the wake message shutdown queues, and returns ErrClosed.
func TestCloseUnblocksPlainReceive(t *testing.T) {
	eps := mesh(t, 2)
	evals := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- eps[0].WaitFor(func() bool {
			select {
			case evals <- struct{}{}:
			default:
			}
			return false
		})
	}()
	<-evals // the waiter is inside WaitFor, blocked or about to
	eps[0].Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitFor after Close = %v, want ErrClosed", err)
	}
}

// TestWakeIntoFullInbox: the Wake that sets the wake word finds the
// inbox full and still returns at once (a co-located rank rings from
// inside its own Send or Poll, and two such ranks must not wait on each
// other). Its message goes in once the rank has made room, which
// clears the word for the next Wake — the one that reaches a WaitFor
// blocked after the drain.
func TestWakeIntoFullInbox(t *testing.T) {
	eps := mesh(t, 2)
	eps[0].Register(7, func(*TCPEndpoint, Message) {})
	for len(eps[0].inbox) < cap(eps[0].inbox) {
		eps[0].inbox <- Message{From: 0, To: 0, Handler: 7}
	}
	returned := make(chan struct{})
	go func() {
		eps[0].Wake()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Wake into a full inbox did not return")
	}
	for deadline := time.Now().Add(5 * time.Second); eps[0].wakeQueued.Load(); eps[0].Poll() {
		if time.Now().After(deadline) {
			t.Fatal("the wake message never followed the drain: the word stays set and every later Wake coalesces into nothing")
		}
	}

	var flag atomic.Bool
	done := make(chan error, 1)
	go func() { done <- eps[0].WaitFor(flag.Load) }()
	flag.Store(true)
	eps[0].Wake()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitFor: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor did not observe the flag after Wake")
	}
}
