//go:build !race

// Steady-state allocation gates for the zero-copy data path. The race
// detector instruments allocations, so these run in non-race builds
// only (the CI alloc-gate leg).
package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/frames"
)

// TestAllocsSendReceiveSteadyState gates the full frame cycle — Send
// (borrowed payload, by-reference iovec), vectored flush, reader-
// goroutine rx into a pooled buffer, dispatch, pool release — at ≤1
// allocation per frame once the slabs, queues and pools are warm.
func TestAllocsSendReceiveSteadyState(t *testing.T) {
	eps := mesh(t, 2)
	var hits atomic.Int64
	eps[1].Register(5, func(_ *TCPEndpoint, m Message) { hits.Add(1) })

	payload := make([]byte, 1024)
	const batch = 64
	want := int64(0)
	cycle := func() {
		for i := 0; i < batch; i++ {
			if err := eps[0].Send(Message{To: 1, Handler: 5, Arg: uint64(i), Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		eps[0].Flush()
		want += batch
		// Drain with non-blocking polls: WaitFor would arm timers and
		// muddy the measurement.
		for hits.Load() < want {
			eps[1].Poll()
		}
	}
	cycle() // warm slabs, iovec queues, rx pools

	avg := testing.AllocsPerRun(50, cycle)
	if perFrame := avg / batch; perFrame > 1.0 {
		t.Errorf("send+rx steady state: %.3f allocs/frame, want <= 1", perFrame)
	}
}

// TestAllocsDispatchSteadyState gates the pooled dispatch-and-release
// path in isolation via loopback: an owned pooled payload rides the
// inbox, runs its handler, and returns to the pool — zero allocations
// per frame.
func TestAllocsDispatchSteadyState(t *testing.T) {
	eps := mesh(t, 1)
	var sum atomic.Uint64
	eps[0].Register(5, func(_ *TCPEndpoint, m Message) { sum.Add(uint64(m.Payload[0])) })

	cycle := func() {
		p := frames.Get(512)
		p[0] = 1
		if err := eps[0].SendOwned(Message{To: 0, Handler: 5, Payload: p}); err != nil {
			t.Fatal(err)
		}
		for eps[0].Poll() == 0 {
		}
	}
	cycle()

	avg := testing.AllocsPerRun(2000, cycle)
	if avg > 0.1 {
		t.Errorf("loopback dispatch steady state: %.3f allocs/frame, want 0", avg)
	}
}

// TestAllocsBlockedWaitTick gates the park: a round trip whose waiter
// blocks in WaitFor on an endpoint with a tick installed (every
// resilient rank) allocates nothing — no timer per blocked wait, and
// the one per endpoint is re-armed in place.
func TestAllocsBlockedWaitTick(t *testing.T) {
	eps := mesh(t, 2)
	var stop atomic.Bool
	eps[1].Register(5, func(ep *TCPEndpoint, m Message) {
		if err := ep.Send(Message{To: 0, Handler: 6, Arg: m.Arg}); err != nil {
			t.Error(err)
		}
	})
	var pongs uint64
	eps[0].Register(6, func(*TCPEndpoint, Message) { pongs++ })
	for _, ep := range eps {
		ep.SetTick(time.Millisecond, func() {})
	}
	served := make(chan error, 1)
	go func() { served <- eps[1].WaitFor(stop.Load) }()

	want := uint64(0)
	cycle := func() {
		want++
		if err := eps[0].Send(Message{To: 1, Handler: 5, Arg: want}); err != nil {
			t.Fatal(err)
		}
		if err := eps[0].WaitFor(func() bool { return pongs == want }); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Errorf("blocked round trip on a ticking endpoint: %.2f allocs, want 0", avg)
	}
	stop.Store(true)
	eps[1].Wake()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
