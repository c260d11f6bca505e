package upcxx_test

import (
	"testing"

	"upcxx"
)

// TestPublicAPIEndToEnd drives every major public construct through one
// SPMD program — the facade-level integration test.
func TestPublicAPIEndToEnd(t *testing.T) {
	st := upcxx.Run(upcxx.Config{Ranks: 4}, func(me *upcxx.Rank) {
		// Shared objects.
		sv := upcxx.NewSharedVar[int64](me)
		sa := upcxx.NewSharedArray[int64](me, 32, 2)
		if me.ID() == 0 {
			sv.Set(me, 99)
		}
		for i := 0; i < sa.Len(); i++ {
			if sa.OwnerOf(i) == me.ID() {
				sa.Set(me, i, int64(i))
			}
		}
		me.Barrier()
		if sv.Get(me) != 99 {
			t.Error("shared var")
		}
		for i := 0; i < sa.Len(); i++ {
			if sa.Get(me, i) != int64(i) {
				t.Errorf("sa[%d]", i)
			}
		}

		// Global memory + one-sided ops.
		buf := upcxx.Allocate[float64](me, me.ID(), 8)
		ptrs := upcxx.TeamAllGather(me.World(), buf)
		me.Barrier()
		next := ptrs[(me.ID()+1)%me.Ranks()]
		upcxx.Write(me, next, float64(me.ID()))
		me.Barrier()
		prev := (me.ID() + me.Ranks() - 1) % me.Ranks()
		if got := upcxx.Read(me, buf); got != float64(prev) {
			t.Errorf("ring write: got %v want %v", got, prev)
		}
		// Barrier before the next phase mutates buffers others may still
		// be reading (the memory model makes this the program's job).
		me.Barrier()

		// Bulk + events.
		ev := upcxx.NewEvent()
		upcxx.AsyncCopy(me, buf, next, 1, ev)
		ev.Wait(me)
		upcxx.AsyncCopyFence(me)
		me.Barrier()

		// Asyncs, futures, finish.
		if me.ID() == 0 {
			f := upcxx.AsyncFuture(me, 3, func(r *upcxx.Rank) int { return r.ID() * 2 })
			if f.Get() != 6 {
				t.Error("future")
			}
			done := 0
			upcxx.Finish(me, func() {
				upcxx.Async(me, upcxx.OnRanks(1, 2), func(*upcxx.Rank) {}, upcxx.Payload(16))
				done++
			})
			if done != 1 {
				t.Error("finish body ran wrong")
			}
		}
		me.Barrier()

		// Futures-first completion: chains, joins, promises, Onto.
		if me.ID() == 0 {
			chained := 0.0
			upcxx.Finish(me, func() {
				f := upcxx.ReadAsync(me, next)
				upcxx.Then(f, func(v float64) struct{} { chained = v + 1; return struct{}{} })
			})
			if chained == 0 {
				t.Error("Then continuation did not run under Finish")
			}

			reads := []*upcxx.Future[float64]{
				upcxx.ReadAsync(me, buf),
				upcxx.ReadAsync(me, next),
			}
			if vals := upcxx.WhenAll(reads...).Get(); len(vals) != 2 {
				t.Error("WhenAll")
			}

			pr := upcxx.NewPromise(me)
			ev2 := upcxx.NewEvent()
			upcxx.WriteAsync(me, next, 7.5).Wait()
			upcxx.AsyncCopy(me, next, buf, 1, upcxx.Onto(pr, ev2))
			pr.Finalize().Wait()
			if !ev2.Test(me) {
				t.Error("Onto event leg")
			}
			if upcxx.ReadAsync(me, buf).Get() != 7.5 {
				t.Error("WriteAsync/CopyAsync pipeline")
			}
			upcxx.CopyAsync(me, buf, next, 1).Wait()
		}
		me.Barrier()

		// Locks.
		l := upcxx.TeamBroadcast(me.World(), upcxx.NewLock(me), 0)
		l.Acquire(me)
		l.Release(me)
		me.Barrier()

		// Collectives.
		if upcxx.TeamReduce(me.World(), 1, func(a, b int) int { return a + b }) != me.Ranks() {
			t.Error("reduce")
		}

		// Multidimensional arrays.
		grid := upcxx.NewNDArray[int32](me, upcxx.RD3(0, 0, 0, 4, 4, 4).Translate(upcxx.P(me.ID()*4, 0, 0)))
		grid.Fill(me, int32(me.ID()))
		refs := upcxx.TeamAllGather(me.World(), grid.Ref())
		me.Barrier()
		if me.ID() == 0 {
			other := upcxx.NDFromRef(refs[1])
			if other.Get(me, upcxx.P(4, 0, 0)) != 1 {
				t.Error("remote ndarray read")
			}
		}
		me.Barrier()
	})
	if st.Ranks != 4 || st.VirtualNs <= 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestMachineProfilesExported(t *testing.T) {
	if upcxx.Edison.Name != "edison" || upcxx.Vesta.Name != "vesta" || upcxx.LocalMachine.Name != "local" {
		t.Error("machine profiles")
	}
}
