package gasnet

import (
	"sync"
	"sync/atomic"
	"testing"

	"upcxx/internal/sim"
)

func newTestEngine(n int) *Engine {
	return New(sim.NewModel(sim.Local, sim.SWUPCXX, n), n)
}

// spawn runs f on every rank and waits for completion.
func spawn(g *Engine, f func(e *Endpoint)) {
	var wg sync.WaitGroup
	for i := 0; i < g.N; i++ {
		wg.Add(1)
		go func(e *Endpoint) {
			defer wg.Done()
			f(e)
		}(g.Endpoint(i))
	}
	wg.Wait()
}

func TestSendAndPoll(t *testing.T) {
	g := newTestEngine(2)
	var got atomic.Int64
	spawn(g, func(e *Endpoint) {
		if e.Rank == 0 {
			e.Send(1, 8, func(*Endpoint) { got.Store(42) })
		}
		e.Barrier() // delivery ordering: message is in flight before exit
		e.Poll()    // target drains whatever arrived
		e.Barrier()
	})
	if got.Load() != 42 {
		t.Fatalf("AM did not run: got %d", got.Load())
	}
}

func TestLoopbackSendRunsInline(t *testing.T) {
	g := newTestEngine(1)
	e := g.Endpoint(0)
	ran := false
	e.Send(0, 0, func(*Endpoint) { ran = true })
	if !ran {
		t.Fatal("loopback AM should execute synchronously")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	g := newTestEngine(4)
	var after [4]float64
	spawn(g, func(e *Endpoint) {
		// Skewed clocks: rank i advances i microseconds.
		e.Clock.Advance(float64(e.Rank) * 1000)
		e.Barrier()
		after[e.Rank] = e.Clock.Now()
	})
	want := after[0]
	if want <= 3000 {
		t.Fatalf("release time %v should exceed max entry clock 3000", want)
	}
	for i, v := range after {
		if v != want {
			t.Fatalf("rank %d clock %v differs from rank 0 clock %v", i, v, want)
		}
	}
}

func TestBarrierManyRounds(t *testing.T) {
	g := newTestEngine(8)
	var sum atomic.Int64
	spawn(g, func(e *Endpoint) {
		for round := 0; round < 50; round++ {
			if e.Rank == round%8 {
				sum.Add(1)
			}
			e.Barrier()
			// Every rank must observe all increments so far.
			if int(sum.Load()) < round+1 {
				t.Errorf("round %d: rank %d saw sum %d", round, e.Rank, sum.Load())
			}
			e.Barrier()
		}
	})
	if sum.Load() != 50 {
		t.Fatalf("sum = %d, want 50", sum.Load())
	}
}

func TestWaitForWake(t *testing.T) {
	g := newTestEngine(2)
	var flag atomic.Bool
	spawn(g, func(e *Endpoint) {
		if e.Rank == 0 {
			e.Clock.Advance(5000)
			// The transition WaitFor is waiting on must ride the wake
			// message itself (the engine's invariant 2): storing the
			// flag before sending would let the waiter observe it
			// without consuming the wake, leaving its clock behind.
			e.SendAt(1, e.Clock.Now()+1000, 0, func(*Endpoint) { flag.Store(true) })
			e.Barrier()
		} else {
			e.WaitFor(flag.Load)
			if e.Clock.Now() < 6000 {
				t.Errorf("waiter clock %v should include wake arrival 6000", e.Clock.Now())
			}
			e.Barrier()
		}
	})
}

func TestSendBackpressureNoDeadlock(t *testing.T) {
	// Two ranks flood each other far beyond InboxCap; the self-draining
	// send must prevent the classic mutual-full-inbox deadlock.
	g := newTestEngine(2)
	const msgs = InboxCap * 10
	var delivered atomic.Int64
	spawn(g, func(e *Endpoint) {
		other := 1 - e.Rank
		for i := 0; i < msgs; i++ {
			e.Send(other, 8, func(*Endpoint) { delivered.Add(1) })
		}
		e.Barrier()
		e.Poll()
		e.Barrier()
	})
	if delivered.Load() != 2*msgs {
		t.Fatalf("delivered %d, want %d", delivered.Load(), 2*msgs)
	}
}

func TestTaskArrivalAdvancesTargetClock(t *testing.T) {
	g := newTestEngine(2)
	spawn(g, func(e *Endpoint) {
		if e.Rank == 0 {
			e.Clock.Advance(1e6) // 1 ms ahead
			e.Send(1, 0, func(tgt *Endpoint) {
				if tgt.Clock.Now() < 1e6 {
					t.Errorf("target executed task at %v, before send time 1e6", tgt.Clock.Now())
				}
			})
			e.Barrier()
		} else {
			e.Barrier()
		}
	})
}

func TestCollectiveAllGather(t *testing.T) {
	g := newTestEngine(8)
	results := make([][]int, 8)
	spawn(g, func(e *Endpoint) {
		slot := e.Collective(
			func(n int) any { return make([]int, n) },
			func(s any) { s.([]int)[e.Rank] = e.Rank * e.Rank },
			nil,
			8,
		)
		results[e.Rank] = slot.([]int)
	})
	for r := 0; r < 8; r++ {
		for i := 0; i < 8; i++ {
			if results[r][i] != i*i {
				t.Fatalf("rank %d slot[%d] = %d, want %d", r, i, results[r][i], i*i)
			}
		}
	}
	// All ranks must share the same backing array (no quadratic copies).
	if &results[0][0] != &results[7][0] {
		t.Error("collective results should share one backing array")
	}
}

func TestCollectiveSequencing(t *testing.T) {
	// Back-to-back collectives must not bleed into each other.
	g := newTestEngine(4)
	bad := atomic.Bool{}
	spawn(g, func(e *Endpoint) {
		for round := 0; round < 20; round++ {
			slot := e.Collective(
				func(n int) any { return make([]int, n) },
				func(s any) { s.([]int)[e.Rank] = round },
				nil,
				8,
			).([]int)
			for _, v := range slot {
				if v != round {
					bad.Store(true)
				}
			}
		}
	})
	if bad.Load() {
		t.Fatal("collective rounds interleaved")
	}
}

func TestStatsCounting(t *testing.T) {
	g := newTestEngine(2)
	spawn(g, func(e *Endpoint) {
		if e.Rank == 0 {
			for i := 0; i < 5; i++ {
				e.Send(1, 100, func(*Endpoint) {})
			}
		}
		e.Barrier()
		e.Poll()
		e.Barrier()
	})
	var ams, tasks int64
	for _, e := range g.eps {
		ams += e.Stats.AMs
		tasks += e.Stats.Tasks
	}
	if ams != 5 {
		t.Errorf("AMs = %d, want 5", ams)
	}
	if tasks != 5 {
		t.Errorf("Tasks = %d, want 5", tasks)
	}
}

func TestManyRanksBarrierStress(t *testing.T) {
	// 1024 goroutine ranks through repeated barriers: exercises the
	// generation handoff under heavy contention.
	g := newTestEngine(1024)
	var rounds atomic.Int64
	spawn(g, func(e *Endpoint) {
		for i := 0; i < 5; i++ {
			e.Barrier()
		}
		rounds.Add(1)
	})
	if rounds.Load() != 1024 {
		t.Fatalf("only %d ranks completed", rounds.Load())
	}
}
