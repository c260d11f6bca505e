package core

import (
	"sync/atomic"
	"testing"
)

func TestAsyncRunsOnTarget(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		var ranOn atomic.Int64
		ranOn.Store(-1)
		if me.ID() == 0 {
			Finish(me, func() {
				Async(me, On(2), func(tgt *Rank) { ranOn.Store(int64(tgt.ID())) })
			})
			if ranOn.Load() != 2 {
				t.Errorf("async ran on rank %d, want 2", ranOn.Load())
			}
		}
		me.Barrier()
	})
}

func TestAsyncGroupPlace(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		var count atomic.Int64
		if me.ID() == 0 {
			Finish(me, func() {
				Async(me, OnRanks(1, 2, 3), func(*Rank) { count.Add(1) })
			})
			if count.Load() != 3 {
				t.Errorf("group async ran %d times, want 3", count.Load())
			}
			Finish(me, func() {
				Async(me, Everywhere(me), func(*Rank) { count.Add(1) })
			})
			if count.Load() != 7 {
				t.Errorf("everywhere async total %d, want 7", count.Load())
			}
		}
		me.Barrier()
	})
}

func TestFinishWaitsForAll(t *testing.T) {
	Run(testCfg(8), func(me *Rank) {
		var done atomic.Int64
		if me.ID() == 0 {
			Finish(me, func() {
				for r := 1; r < 8; r++ {
					Async(me, On(r), func(*Rank) { done.Add(1) })
				}
			})
			if done.Load() != 7 {
				t.Errorf("finish returned with %d/7 tasks done", done.Load())
			}
		}
		me.Barrier()
	})
}

func TestFinishNested(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			var inner, outer atomic.Bool
			Finish(me, func() {
				Async(me, On(1), func(*Rank) { outer.Store(true) })
				Finish(me, func() {
					Async(me, On(1), func(*Rank) { inner.Store(true) })
				})
				if !inner.Load() {
					t.Error("inner finish did not wait for inner async")
				}
			})
			if !outer.Load() {
				t.Error("outer finish did not wait for outer async")
			}
		}
		me.Barrier()
	})
}

func TestFinishDynamicScopeOnly(t *testing.T) {
	// Paper §III-G: unlike X10, finish waits only for asyncs spawned in
	// its dynamic scope, not transitively for asyncs those tasks spawn.
	Run(testCfg(3), func(me *Rank) {
		var grandchild atomic.Bool
		if me.ID() == 0 {
			Finish(me, func() {
				Async(me, On(1), func(r1 *Rank) {
					// The grandchild is NOT tracked by rank 0's finish.
					Async(r1, On(2), func(*Rank) { grandchild.Store(true) })
				})
			})
			// The grandchild may or may not have run yet; the barrier
			// quiesces it.
		}
		me.Barrier()
		me.Advance()
		me.Barrier()
		if me.ID() == 0 && !grandchild.Load() {
			t.Error("grandchild async never ran")
		}
	})
}

func TestAsyncFutureReturnsValue(t *testing.T) {
	Run(testCfg(3), func(me *Rank) {
		if me.ID() == 0 {
			f := AsyncFuture(me, 2, func(tgt *Rank) int { return tgt.ID() * 11 })
			if v := f.Get(); v != 22 {
				t.Errorf("future = %d, want 22", v)
			}
		}
		me.Barrier()
	})
}

func TestAsyncFutureLatencyCharged(t *testing.T) {
	st := Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			f := AsyncFuture(me, 1, func(*Rank) int { return 1 })
			f.Get()
		}
	})
	if st.VirtualNs <= 0 {
		t.Error("round trip should cost virtual time")
	}
}

func TestAsyncSignalEvent(t *testing.T) {
	// Paper: async(place, event* ack)(task) signals ack when the task
	// completes.
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			ev := NewEvent()
			var ran atomic.Bool
			Async(me, On(1), func(*Rank) { ran.Store(true) }, Signal(ev))
			ev.Wait(me)
			if !ran.Load() {
				t.Error("event fired before task ran")
			}
		}
		me.Barrier()
	})
}

func TestListing1DependencyGraph(t *testing.T) {
	// The task graph of Listing 1 / Fig 1: e1 gates t3, e2 gates t4's
	// companions t5,t6, e3 is the final join.
	Run(testCfg(8), func(me *Rank) {
		if me.ID() != 0 {
			me.Barrier()
			return
		}
		var order [7]atomic.Int64 // completion stamps by task id (1-based)
		var stamp atomic.Int64
		mark := func(id int) func(*Rank) {
			return func(*Rank) { order[id].Store(stamp.Add(1)) }
		}
		e1, e2, e3 := NewEvent(), NewEvent(), NewEvent()
		Async(me, On(1), mark(1), Signal(e1))
		Async(me, On(2), mark(2), Signal(e1))
		AsyncAfter(me, On(3), e1, e2, mark(3))
		Async(me, On(4), mark(4), Signal(e2))
		AsyncAfter(me, On(5), e2, e3, mark(5))
		AsyncAfter(me, On(6), e2, e3, mark(6))
		e3.Wait(me)

		for id := 1; id <= 6; id++ {
			if order[id].Load() == 0 {
				t.Errorf("task %d never ran", id)
			}
		}
		// t3 must follow both t1 and t2; t5, t6 must follow t3 and t4.
		if order[3].Load() < order[1].Load() || order[3].Load() < order[2].Load() {
			t.Error("t3 ran before its e1 dependencies")
		}
		for _, id := range []int{5, 6} {
			if order[id].Load() < order[3].Load() || order[id].Load() < order[4].Load() {
				t.Errorf("t%d ran before its e2 dependencies", id)
			}
		}
		me.Barrier()
	})
}

func TestAsyncAfterAlreadyFired(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			ev := NewEvent()
			var a, b atomic.Bool
			Async(me, On(1), func(*Rank) { a.Store(true) }, Signal(ev))
			ev.Wait(me) // ev fires
			done := NewEvent()
			AsyncAfter(me, On(1), ev, done, func(*Rank) { b.Store(true) })
			done.Wait(me)
			if !a.Load() || !b.Load() {
				t.Error("async_after on already-fired event did not launch")
			}
		}
		me.Barrier()
	})
}

func TestEventWaitOnFreshEventReturns(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		ev := NewEvent()
		ev.Wait(me) // must not block
		if !ev.Test(me) {
			t.Error("fresh event should test as fired")
		}
	})
}

func TestFutureReady(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			f := AsyncFuture(me, 1, func(*Rank) int { return 5 })
			for !f.Ready() {
			}
			if f.Get() != 5 {
				t.Error("ready future returned wrong value")
			}
		}
		me.Barrier()
	})
}

func TestLockMutualExclusion(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		l := TeamBroadcast(me.World(), NewLock(me), 0) // share rank 0's lock value
		counter := NewSharedVar[int64](me)
		me.Barrier()
		for i := 0; i < 25; i++ {
			l.Acquire(me)
			v := counter.Get(me)
			counter.Set(me, v+1) // read-modify-write under the lock
			l.Release(me)
		}
		me.Barrier()
		if got := counter.Get(me); got != 100 {
			t.Errorf("counter = %d, want 100 (lost updates => broken lock)", got)
		}
	})
}

func TestTryAcquire(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		l := TeamBroadcast(me.World(), NewLock(me), 0)
		me.Barrier()
		if me.ID() == 0 {
			if !l.TryAcquire(me) {
				t.Error("first TryAcquire should succeed")
			}
		}
		me.Barrier()
		if me.ID() == 1 {
			if l.TryAcquire(me) {
				t.Error("TryAcquire of held lock should fail")
			}
		}
		me.Barrier()
		if me.ID() == 0 {
			l.Release(me)
		}
		me.Barrier()
		if me.ID() == 1 {
			if !l.TryAcquire(me) {
				t.Error("TryAcquire after release should succeed")
			}
			l.Release(me)
		}
		me.Barrier()
	})
}

func TestCollectives(t *testing.T) {
	Run(testCfg(6), func(me *Rank) {
		// Broadcast.
		v := TeamBroadcast(me.World(), me.ID()*7, 3)
		if v != 21 {
			t.Errorf("Broadcast = %d, want 21", v)
		}
		// AllGather.
		all := TeamAllGather(me.World(), me.ID()*me.ID())
		for i, x := range all {
			if x != i*i {
				t.Errorf("AllGather[%d] = %d, want %d", i, x, i*i)
			}
		}
		// Reduce (sum).
		sum := TeamReduce(me.World(), me.ID()+1, func(a, b int) int { return a + b })
		if sum != 21 {
			t.Errorf("Reduce = %d, want 21", sum)
		}
		// ExclusiveScan.
		scan := TeamExclusiveScan(me.World(), 1, func(a, b int) int { return a + b }, 0)
		if scan != me.ID() {
			t.Errorf("ExclusiveScan = %d, want %d", scan, me.ID())
		}
		// Gather on root 2.
		g := TeamGatherAll(me.World(), me.ID()+100, 2)
		if me.ID() == 2 {
			for i, x := range g {
				if x != i+100 {
					t.Errorf("Gather[%d] = %d", i, x)
				}
			}
		} else if g != nil {
			t.Error("non-root Gather should return nil")
		}
	})
}

func TestReduceSlices(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		part := make([]float64, 16)
		for i := range part {
			part[i] = float64(me.ID())
		}
		img := TeamReduceSlices(me.World(), part, func(a, b float64) float64 { return a + b }, 0)
		if me.ID() == 0 {
			for i, x := range img {
				if x != 6 { // 0+1+2+3
					t.Errorf("reduced[%d] = %v, want 6", i, x)
				}
			}
		} else if img != nil {
			t.Error("non-root should get nil")
		}
	})
}

func TestConcurrentThreadMode(t *testing.T) {
	// In Concurrent mode multiple goroutines may drive one rank handle.
	Run(Config{Ranks: 2, Threads: Concurrent}, func(me *Rank) {
		sa := NewSharedArray[int64](me, 64, 1)
		me.Barrier()
		if me.ID() == 0 {
			done := make(chan bool)
			for w := 0; w < 4; w++ {
				go func(w int) {
					for i := w * 8; i < (w+1)*8; i++ {
						sa.Set(me, i, int64(i))
					}
					done <- true
				}(w)
			}
			for w := 0; w < 4; w++ {
				<-done
			}
		}
		me.Barrier()
		for i := 0; i < 32; i++ {
			if sa.Get(me, i) != int64(i) {
				t.Errorf("sa[%d] corrupted", i)
			}
		}
	})
}

func TestAMMediatedAccessPath(t *testing.T) {
	Run(Config{Ranks: 3, Access: AMMediated}, func(me *Rank) {
		sa := NewSharedArray[int64](me, 30, 1)
		for i := me.ID(); i < 30; i += me.Ranks() {
			sa.Set(me, i, int64(i+1000))
		}
		me.Barrier()
		for i := 0; i < 30; i++ {
			if v := sa.Get(me, i); v != int64(i+1000) {
				t.Errorf("AM-mediated sa[%d] = %d", i, v)
			}
		}
	})
}

func TestRMWAtomicity(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		target := NewSharedVar[uint64](me)
		me.Barrier()
		for i := 0; i < 50; i++ {
			RMW(me, target.Ptr(), func(v uint64) uint64 { return v + 1 })
		}
		me.Barrier()
		if got := target.Get(me); got != 200 {
			t.Errorf("RMW lost updates: %d, want 200", got)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	st := Run(testCfg(2), func(me *Rank) {
		buf := Allocate[int64](me, me.ID(), 8)
		all := TeamAllGather(me.World(), buf)
		if me.ID() == 0 {
			for i := 0; i < 10; i++ {
				Write(me, all[1], int64(i))
			}
			for i := 0; i < 5; i++ {
				Read(me, all[1])
			}
		}
	})
	if st.Puts < 10 {
		t.Errorf("Puts = %d, want >= 10", st.Puts)
	}
	if st.Gets < 5 {
		t.Errorf("Gets = %d, want >= 5", st.Gets)
	}
	if st.PutBytes < 80 {
		t.Errorf("PutBytes = %d, want >= 80", st.PutBytes)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	st := Run(testCfg(2), func(me *Rank) {
		me.Work(1e6) // a million flops
		me.Barrier()
	})
	if st.VirtualNs <= 0 {
		t.Error("virtual time did not advance")
	}
}

func TestWorkParallelDividesTime(t *testing.T) {
	serial := Run(testCfg(1), func(me *Rank) { me.Work(1e9) })
	par := Run(testCfg(1), func(me *Rank) { me.WorkParallel(1e9, 8) })
	if par.VirtualNs*4 > serial.VirtualNs {
		t.Errorf("8-way parallel work %v should be ~8x cheaper than %v", par.VirtualNs, serial.VirtualNs)
	}
}
