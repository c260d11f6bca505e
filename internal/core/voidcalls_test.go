package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/rpc"
	"upcxx/internal/transport"
)

// voidGate is one TestVoidCallsBounded run's hold on ttGated's bodies.
type voidGate struct {
	held   atomic.Bool // a gateOnce body has blocked once
	resent atomic.Bool // the caller has sent the held call's second attempt
	die    atomic.Bool // the gateDie body may kill its rank
	eps    []*transport.TCPEndpoint
}

var curGate atomic.Pointer[voidGate]

// ttGated replies with its args, [mode]: gateEcho at once; gateOnce
// only once the caller has re-sent it, the first time it runs; gateDie
// never — it kills its own rank when told.
const (
	gateEcho = iota
	gateOnce
	gateDie
)

var ttGated = RegisterTask("core_test.gated", func(me *Rank, _ int, args []byte) []byte {
	g := curGate.Load()
	switch mode, _ := rpc.U64(args); mode {
	case gateOnce:
		if g.held.CompareAndSwap(false, true) {
			for !g.resent.Load() {
				time.Sleep(time.Millisecond)
			}
		}
	case gateDie:
		for !g.die.Load() {
			time.Sleep(time.Millisecond)
		}
		g.eps[me.ID()].Abort()
	}
	return args
})

// TestVoidCallsBounded: a retired task-call id stays in voidCalls only
// while one of its attempts may still be answered. On a resilient
// 2-rank wire job, 10,000 retried calls answered once each leave it
// empty; a call whose first attempt timed out holds one entry from its
// first reply to its second; and a call whose attempts all timed out
// holds one until its executor is killed. CI runs it -race -count=20.
func TestVoidCallsBounded(t *testing.T) {
	const calls, window = 10000, 500
	g := &voidGate{}
	curGate.Store(g)
	cfg := Config{Resilient: true, HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 10 * time.Second}
	panics := runWireJobFaulty(t, 2, 1<<16, cfg, func(me *Rank, eps []*transport.TCPEndpoint) {
		if me.ID() == 1 {
			me.waitProgress(func() bool { return g.die.Load() })
			return
		}
		g.eps = eps
		defer g.die.Store(true) // whatever happens, rank 1 leaves
		deadline := time.Now().Add(20 * time.Second)
		settle := func(what string, want int) {
			t.Helper()
			me.waitProgress(func() bool { return len(me.voidCalls) == want || time.Now().After(deadline) })
			if got := len(me.voidCalls); got != want {
				t.Errorf("%s: len(voidCalls) = %d, want %d", what, got, want)
			}
		}

		echo := rpc.U64s(gateEcho)
		futs := make([]*Future[[]byte], 0, window)
		for i := 0; i < calls; i += window {
			for range window {
				futs = append(futs, AsyncTaskFuture(me, 1, ttGated, echo, WithRetry(RetryPolicy{MaxAttempts: 3})))
			}
			for _, f := range futs {
				f.Wait()
			}
			futs = futs[:0]
		}
		settle("10,000 retried calls answered once", 0)

		pol := WithRetry(RetryPolicy{MaxAttempts: 2, AttemptTimeout: 200 * time.Millisecond})
		f := AsyncTaskFuture(me, 1, ttGated, rpc.U64s(gateOnce), pol)
		pc := me.calls[me.nextCall]
		me.waitProgress(func() bool { return pc.sent == 2 || time.Now().After(deadline) })
		g.resent.Store(true)
		f.Wait()
		settle("a re-sent call after its first reply", 1)
		settle("a re-sent call after its second reply", 0)

		f = AsyncTaskFuture(me, 1, ttGated, rpc.U64s(gateDie), pol)
		if err := f.Err(); !errors.Is(err, ErrTimeout) {
			t.Errorf("a call never answered failed with %v, want a timeout", err)
		}
		settle("a timed-out call with both attempts unanswered", 1)
		g.die.Store(true)
		me.waitProgress(func() bool { return !me.RankAlive(1) || time.Now().After(deadline) })
		settle("the executor killed", 0)
	})
	if panics[0] != nil {
		t.Fatalf("rank 0 panicked: %v", panics[0])
	}
}
