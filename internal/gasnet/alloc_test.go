package gasnet

import (
	"sync/atomic"
	"testing"

	"upcxx/internal/transport"
)

// TestAllocsOneSidedWire gates the one-sided wire plane's steady-state
// allocations on a 2-rank loopback pair whose target sits in WaitFor:
// Get and Put at no more than 3 allocations per operation at 8 B and
// 32 KiB, GetAsync and PutAsync (with a pre-built onDone) at no more
// than their blocking forms, which are the same transfer waited on —
// and a 32 KiB GetAsync's reply landing in the destination, one frame
// per operation.
func TestAllocsOneSidedWire(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocations over thousands of round trips")
	}
	cds := wireFleet(t, 2, 1<<16)
	var quit atomic.Bool
	served := make(chan error, 1)
	go func() { served <- cds[1].WaitFor(quit.Load) }()
	defer func() {
		quit.Store(true)
		cds[1].Wake()
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	c := cds[0]
	done := false
	var failed error
	onDone := func(err error) { failed, done = err, true }
	isDone := func() bool { return done }
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	const runs = 500
	for _, size := range []int{8, 32 << 10} {
		p := make([]byte, size)
		get := testing.AllocsPerRun(runs, func() { check(c.Get(1, 0, p)) })
		put := testing.AllocsPerRun(runs, func() { check(c.Put(1, 0, p)) })
		landed := c.Counters()["net_rx_landed"]
		getAsync := testing.AllocsPerRun(runs, func() {
			done = false
			check(c.GetAsync(1, 0, p, 0, onDone))
			check(c.WaitFor(isDone))
		})
		landed = (c.Counters()["net_rx_landed"] - landed) / (runs + 1)
		putAsync := testing.AllocsPerRun(runs, func() {
			done = false
			check(c.PutAsync(1, 0, p, 0, onDone))
			check(c.WaitFor(isDone))
		})
		if failed != nil {
			t.Fatalf("%d B: %v", size, failed)
		}
		t.Logf("%d B: Get %.2f, Put %.2f, GetAsync %.2f, PutAsync %.2f allocs/op; GetAsync landed %.3f frames/op",
			size, get, put, getAsync, putAsync, landed)
		if get > 3 || put > 3 {
			t.Errorf("%d B: Get %.2f, Put %.2f allocs/op, want <= 3", size, get, put)
		}
		if getAsync > get || putAsync > put {
			t.Errorf("%d B: GetAsync %.2f, PutAsync %.2f allocs/op, want no more than Get %.2f, Put %.2f",
				size, getAsync, putAsync, get, put)
		}
		if size > transport.LongPayload && landed != 1 {
			t.Errorf("%d B: GetAsync landed %.3f frames/op, want 1", size, landed)
		}
	}
}
