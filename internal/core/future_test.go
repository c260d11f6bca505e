package core

import (
	"strings"
	"testing"

	"upcxx/internal/rpc"
)

func TestThenChainsValues(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			f := AsyncFuture(me, 1, func(tgt *Rank) int { return tgt.ID() + 10 })
			g := Then(f, func(v int) int { return v * 2 })
			h := Then(g, func(v int) string {
				if v != 22 {
					t.Errorf("second link saw %d, want 22", v)
				}
				return "done"
			})
			if got := h.Get(); got != "done" {
				t.Errorf("chain result %q", got)
			}
		}
		me.Barrier()
	})
}

func TestThenOnResolvedFutureRunsInline(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			f := AsyncFuture(me, 1, func(*Rank) int { return 7 })
			f.Get() // resolve first
			ran := false
			Then(f, func(v int) struct{} {
				if v != 7 {
					t.Errorf("late continuation saw %d", v)
				}
				ran = true
				return struct{}{}
			})
			if !ran {
				t.Error("continuation on a resolved future did not run inline")
			}
		}
		me.Barrier()
	})
}

func TestThenAsyncReceivesRankHandle(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			f := AsyncFuture(me, 1, func(*Rank) int { return 3 })
			g := ThenAsync(f, func(r *Rank, v int) int {
				if r.ID() != 0 {
					t.Errorf("continuation ran with rank %d handle, want owner 0", r.ID())
				}
				return v + r.Ranks()
			})
			if got := g.Get(); got != 5 {
				t.Errorf("ThenAsync result %d, want 5", got)
			}
		}
		me.Barrier()
	})
}

func TestWhenAllJoins(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		if me.ID() == 0 {
			fs := make([]*Future[int], 3)
			for i := range fs {
				tgt := i + 1
				fs[i] = AsyncFuture(me, tgt, func(r *Rank) int { return r.ID() * r.ID() })
			}
			vals := WhenAll(fs...).Get()
			for i, v := range vals {
				if want := (i + 1) * (i + 1); v != want {
					t.Errorf("WhenAll[%d] = %d, want %d", i, v, want)
				}
			}
		}
		me.Barrier()
	})
}

func TestWhenAnyRaces(t *testing.T) {
	Run(testCfg(3), func(me *Rank) {
		if me.ID() == 0 {
			a := AsyncFuture(me, 1, func(*Rank) int { return 1 })
			b := AsyncFuture(me, 2, func(*Rank) int { return 2 })
			v := WhenAny(a, b).Get()
			if v != 1 && v != 2 {
				t.Errorf("WhenAny = %d, want one of the inputs", v)
			}
			// Losers still resolve.
			a.Get()
			b.Get()
		}
		me.Barrier()
	})
}

// TestFinishWaitsForContinuations is the acceptance criterion: a Finish
// surrounding a future chain waits for every continuation, including
// links attached inside other continuations (which run during the
// Finish drain, after the body returned).
func TestFinishWaitsForContinuations(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		if me.ID() == 0 {
			depth := 0
			Finish(me, func() {
				var chain func(v int)
				chain = func(v int) {
					if v >= 5 {
						return
					}
					f := AsyncFuture(me, 1+v%3, func(*Rank) int { return v + 1 })
					Then(f, func(u int) struct{} {
						depth = u
						chain(u) // attach the next link from inside a continuation
						return struct{}{}
					})
				}
				chain(0)
			})
			if depth != 5 {
				t.Errorf("Finish returned with chain at depth %d, want 5", depth)
			}
		}
		me.Barrier()
	})
}

// TestFinishWaitsForLateAttachedContinuation covers the "attached after
// the source op completed" half of the criterion: the continuation is
// attached to an already-resolved future inside the Finish body.
func TestFinishWaitsForLateAttachedContinuation(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			ran := false
			Finish(me, func() {
				f := AsyncFuture(me, 1, func(*Rank) int { return 9 })
				f.Get() // resolved before the continuation exists
				Then(f, func(int) struct{} { ran = true; return struct{}{} })
			})
			if !ran {
				t.Error("Finish returned before the late continuation ran")
			}
		}
		me.Barrier()
	})
}

func TestReadWriteAsyncRoundTrip(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		p := Allocate[uint64](me, 1, 4)
		p = TeamBroadcast(me.World(), p, 0)
		if me.ID() == 0 {
			WriteAsync(me, p, 0xBEEF).Wait()
			if v := ReadAsync(me, p).Get(); v != 0xBEEF {
				t.Errorf("ReadAsync = %#x, want 0xBEEF", v)
			}
		}
		me.Barrier()
	})
}

func TestReadAsyncThenOverlap(t *testing.T) {
	// Issue N reads back to back, then consume: the modeled cost must
	// be far below N sequential round trips (overlap in virtual time).
	st := Run(testCfg(2), func(me *Rank) {
		n := 32
		p := Allocate[uint64](me, 1, n)
		p = TeamBroadcast(me.World(), p, 0)
		if me.ID() == 1 {
			for i := 0; i < n; i++ {
				Write(me, p.Add(i), uint64(i)*3)
			}
		}
		me.Barrier()
		if me.ID() == 0 {
			sum := uint64(0)
			Finish(me, func() {
				for i := 0; i < n; i++ {
					f := ReadAsync(me, p.Add(i))
					Then(f, func(v uint64) struct{} { sum += v; return struct{}{} })
				}
			})
			want := uint64(0)
			for i := 0; i < n; i++ {
				want += uint64(i) * 3
			}
			if sum != want {
				t.Errorf("overlapped sum = %d, want %d", sum, want)
			}
		}
		me.Barrier()
	})
	if st.VirtualNs <= 0 {
		t.Error("reads should cost virtual time")
	}
}

func TestCopyAsyncAndReadSliceAsync(t *testing.T) {
	Run(testCfg(3), func(me *Rank) {
		n := 16
		src := Allocate[uint64](me, 1, n)
		dst := Allocate[uint64](me, 2, n)
		src = TeamBroadcast(me.World(), src, 0)
		dst = TeamBroadcast(me.World(), dst, 0)
		if me.ID() == 1 {
			for i := 0; i < n; i++ {
				Write(me, src.Add(i), uint64(i)+100)
			}
		}
		me.Barrier()
		if me.ID() == 0 {
			CopyAsync(me, src, dst, n).Wait() // fully remote pair
			got := make([]uint64, n)
			out := ReadSliceAsync(me, dst, got).Get()
			for i, v := range out {
				if v != uint64(i)+100 {
					t.Errorf("dst[%d] = %d, want %d", i, v, i+100)
				}
			}
		}
		me.Barrier()
	})
}

func TestPromiseOntoCombinations(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		p := Allocate[uint64](me, 1, 8)
		p = TeamBroadcast(me.World(), p, 0)
		if me.ID() == 0 {
			// One promise gathering several operations, combined with a
			// legacy event through Onto.
			pr := NewPromise(me)
			ev := NewEvent()
			AsyncCopy(me, p, p.Add(4), 2, Onto(pr, ev))
			WriteSliceAsync(me, p, []uint64{1, 2}, pr)
			done := pr.Finalize()
			done.Wait()
			if !ev.Test(me) {
				t.Error("event leg of Onto did not fire")
			}
			if !done.Ready() {
				t.Error("promise future not resolved after Finalize+Wait")
			}
		}
		me.Barrier()
	})
}

func TestOntoToFinishAttachesCopies(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		p := Allocate[uint64](me, 1, 2)
		p = TeamBroadcast(me.World(), p, 0)
		if me.ID() == 0 {
			// AsyncCopy historically bypasses Finish (implicit handle
			// set); ToFinish opts it in.
			Finish(me, func() {
				WriteSliceAsync(me, p, []uint64{5, 6}, ToFinish())
			})
			got := make([]uint64, 2)
			ReadSlice(me, p, got)
			if got[0] != 5 || got[1] != 6 {
				t.Errorf("ToFinish copy landed %v", got)
			}
		}
		me.Barrier()
	})
}

func TestAsyncTaskOntoPromise(t *testing.T) {
	Run(testCfg(3), func(me *Rank) {
		if me.ID() == 0 {
			pr := NewPromise(me)
			AsyncTask(me, OnRanks(1, 2), ttValue, rpc.U64s(7), Onto(pr))
			pr.Finalize().Wait()
		}
		me.Barrier()
	})
}

func TestSignalStillWorksThroughSeam(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			ev := NewEvent()
			ran := false
			Async(me, On(1), func(*Rank) { ran = true }, Signal(ev))
			ev.Wait(me)
			if !ran {
				t.Error("Signal event fired before the task ran")
			}
		}
		me.Barrier()
	})
}

func TestFutureGetFromWrongRankPanics(t *testing.T) {
	fch := make(chan *Future[int], 1)
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			fch <- AsyncFuture(me, 1, func(*Rank) int { return 1 })
		}
		me.Barrier()
		if me.ID() == 1 {
			f := <-fch
			func() {
				defer func() {
					p := recover()
					if p == nil {
						t.Error("Future.Get from the wrong rank's goroutine did not panic")
						return
					}
					msg, _ := p.(string)
					if !strings.Contains(msg, "owned by rank 0") {
						t.Errorf("panic does not name the owning rank: %v", p)
					}
				}()
				f.Get()
			}()
		}
		me.Barrier()
	})
}

func TestResolvedFutureSeedsChain(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		f := Resolved(me, 21)
		if v := Then(f, func(v int) int { return v * 2 }).Get(); v != 42 {
			t.Errorf("Resolved chain = %d, want 42", v)
		}
	})
}
