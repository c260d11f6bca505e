package ndarray

import (
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/sim"
)

func testCfg(ranks int) core.Config {
	return core.Config{Ranks: ranks, Machine: sim.Local}
}

func TestArrayLocalGetSet(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[float64](me, RD3(1, 2, 3, 5, 6, 7))
		a.Domain().ForEach(func(p Point) {
			a.Set(me, p, float64(p.Get(0)*100+p.Get(1)*10+p.Get(2)))
		})
		a.Domain().ForEach(func(p Point) {
			want := float64(p.Get(0)*100 + p.Get(1)*10 + p.Get(2))
			if got := a.Get(me, p); got != want {
				t.Errorf("a[%v] = %v, want %v", p, got, want)
			}
		})
		if !a.Unstrided() {
			t.Error("fresh array over unit-stride domain should be unstrided")
		}
	})
}

func TestArrayIndexOutsideDomainPanics(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int32](me, RD2(0, 0, 4, 4))
		defer func() {
			if recover() == nil {
				t.Error("out-of-domain access should panic")
			}
		}()
		a.Get(me, P2(4, 0))
	})
}

func TestArrayConstrictSharesBacking(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int64](me, RD2(0, 0, 8, 8))
		v := a.Constrict(RD2(2, 2, 4, 4))
		v.Set(me, P2(3, 3), 99)
		if a.Get(me, P2(3, 3)) != 99 {
			t.Error("view write not visible through parent")
		}
		if v.Domain().Size() != 4 {
			t.Errorf("constrict size = %d, want 4", v.Domain().Size())
		}
		// Constricting beyond the domain clips.
		w := a.Constrict(RD2(6, 6, 20, 20))
		if w.Domain().Size() != 4 {
			t.Errorf("clipped constrict = %v", w.Domain())
		}
	})
}

func TestArrayTranslate(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int32](me, RD2(0, 0, 4, 4))
		a.Set(me, P2(1, 1), 42)
		b := a.Translate(P2(10, 10))
		if b.Get(me, P2(11, 11)) != 42 {
			t.Error("translated view should address old (1,1) as (11,11)")
		}
		b.Set(me, P2(10, 10), 7)
		if a.Get(me, P2(0, 0)) != 7 {
			t.Error("translated write not visible in parent")
		}
	})
}

func TestArraySlice(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int32](me, RD3(0, 0, 0, 4, 4, 4))
		a.Domain().ForEach(func(p Point) {
			a.Set(me, p, int32(p.Get(0)*16+p.Get(1)*4+p.Get(2)))
		})
		// Fix j = 2: a 2-D plane indexed by (i, k).
		s := a.Slice(1, 2)
		if s.Domain().Dim() != 2 {
			t.Fatalf("slice dim = %d", s.Domain().Dim())
		}
		s.Domain().ForEach(func(p Point) {
			want := int32(p.Get(0)*16 + 2*4 + p.Get(1))
			if got := s.Get(me, p); got != want {
				t.Errorf("slice[%v] = %d, want %d", p, got, want)
			}
		})
		// Writes through the slice hit the parent.
		s.Set(me, P2(0, 0), -1)
		if a.Get(me, P3(0, 2, 0)) != -1 {
			t.Error("slice write not visible in parent")
		}
	})
}

func TestArrayPermute(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int32](me, RD2(0, 0, 3, 5))
		a.Set(me, P2(1, 4), 13)
		tr := a.Permute([]int{1, 0}) // transpose
		if !tr.Domain().Equal(RD2(0, 0, 5, 3)) {
			t.Errorf("transposed domain = %v", tr.Domain())
		}
		if tr.Get(me, P2(4, 1)) != 13 {
			t.Error("transpose should swap indices")
		}
	})
}

func TestRow3FastPath(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[float64](me, RD3(0, 0, 0, 3, 3, 8))
		a.Set(me, P3(1, 2, 5), 3.5)
		row := a.Row3(me, 1, 2)
		if len(row) != 8 {
			t.Fatalf("row length = %d", len(row))
		}
		if row[5] != 3.5 {
			t.Error("Row3 misaligned")
		}
		row[0] = 1.5
		if a.Get(me, P3(1, 2, 0)) != 1.5 {
			t.Error("Row3 write not visible")
		}
	})
}

func TestRemoteGetSet(t *testing.T) {
	core.Run(testCfg(2), func(me *core.Rank) {
		var ref Ref[int64]
		if me.ID() == 1 {
			a := New[int64](me, RD2(0, 0, 4, 4))
			a.Set(me, P2(2, 2), 1234)
			ref = a.Ref()
		}
		ref = core.TeamBroadcast(me.World(), ref, 1)
		me.Barrier()
		if me.ID() == 0 {
			remote := FromRef(ref)
			if got := remote.Get(me, P2(2, 2)); got != 1234 {
				t.Errorf("remote get = %d, want 1234", got)
			}
			remote.Set(me, P2(0, 3), 77)
		}
		me.Barrier()
		if me.ID() == 1 {
			a := FromRef(ref)
			if a.Get(me, P2(0, 3)) != 77 {
				t.Error("remote set not visible at owner")
			}
		}
		me.Barrier()
	})
}

func TestCopyFromLocalIntersection(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int32](me, RD2(0, 0, 6, 6))
		b := New[int32](me, RD2(3, 3, 9, 9))
		b.Domain().ForEach(func(p Point) { b.Set(me, p, int32(p.Get(0)+10*p.Get(1))) })
		a.CopyFrom(me, b)
		// Only the overlap [3,6)x[3,6) was copied.
		a.Domain().ForEach(func(p Point) {
			want := int32(0)
			if p.Get(0) >= 3 && p.Get(1) >= 3 {
				want = int32(p.Get(0) + 10*p.Get(1))
			}
			if got := a.Get(me, p); got != want {
				t.Errorf("a[%v] = %d, want %d", p, got, want)
			}
		})
	})
}

func TestGhostExchangeTwoRanks(t *testing.T) {
	// The paper's headline array operation: each rank owns an interior
	// in global coordinates, grown by one ghost layer; one statement
	// pulls the neighbor's boundary plane.
	const n = 4
	core.Run(testCfg(2), func(me *core.Rank) {
		lo := me.ID() * n
		interior := RD3(lo, 0, 0, lo+n, n, n)
		grid := New[float64](me, interior.Grow(1))
		// Fill the interior with a rank-identifying pattern.
		interior.ForEach(func(p Point) { grid.Set(me, p, float64(me.ID()*1000+p.Get(0))) })

		refs := core.TeamAllGather(me.World(), grid.Ref())
		me.Barrier()

		other := FromRef(refs[1-me.ID()])
		// Ghost face toward the neighbor (low or high x).
		var ghost RectDomain
		if me.ID() == 0 {
			ghost = grid.Domain().Face(0, +1, 1).Intersect(RD3(n, 0, 0, n+1, n, n))
		} else {
			ghost = grid.Domain().Face(0, -1, 1).Intersect(RD3(n-1, 0, 0, n, n, n))
		}
		grid.Constrict(ghost).CopyFrom(me, other)
		me.Barrier()

		ghost.ForEach(func(p Point) {
			want := float64((1-me.ID())*1000 + p.Get(0))
			if got := grid.Get(me, p); got != want {
				t.Errorf("rank %d ghost[%v] = %v, want %v", me.ID(), p, got, want)
			}
		})
	})
}

func TestCopyFromThirdParty(t *testing.T) {
	// Rank 0 orchestrates a copy from rank 1's array to rank 2's array.
	core.Run(testCfg(3), func(me *core.Rank) {
		var r Ref[int32]
		if me.ID() > 0 {
			a := New[int32](me, RD2(0, 0, 4, 4))
			if me.ID() == 1 {
				a.Domain().ForEach(func(p Point) { a.Set(me, p, int32(p.Get(0)*4+p.Get(1))) })
			}
			r = a.Ref()
		}
		refs := core.TeamAllGather(me.World(), r)
		me.Barrier()
		if me.ID() == 0 {
			src := FromRef(refs[1])
			dst := FromRef(refs[2])
			dst.CopyFrom(me, src)
		}
		me.Barrier()
		if me.ID() == 2 {
			a := FromRef(refs[2])
			a.Domain().ForEach(func(p Point) {
				if got := a.Get(me, p); got != int32(p.Get(0)*4+p.Get(1)) {
					t.Errorf("third-party copy: [%v] = %d", p, got)
				}
			})
		}
		me.Barrier()
	})
}

func TestCopyFromAsyncWithEvent(t *testing.T) {
	core.Run(testCfg(2), func(me *core.Rank) {
		interior := RD2(0, 0, 4, 4)
		a := New[int64](me, interior)
		if me.ID() == 1 {
			a.Domain().ForEach(func(p Point) { a.Set(me, p, 5) })
		}
		refs := core.TeamAllGather(me.World(), a.Ref())
		me.Barrier()
		if me.ID() == 0 {
			ev := core.NewEvent()
			a.CopyFromAsync(me, FromRef(refs[1]), ev)
			ev.Wait(me)
			if a.Get(me, P2(3, 3)) != 5 {
				t.Error("async ghost copy did not land")
			}
		}
		me.Barrier()
	})
}

func TestCopyDisjointIsNoop(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int32](me, RD2(0, 0, 2, 2))
		b := New[int32](me, RD2(10, 10, 12, 12))
		b.Fill(me, 9)
		a.CopyFrom(me, b)
		a.Domain().ForEach(func(p Point) {
			if a.Get(me, p) != 0 {
				t.Error("disjoint copy wrote data")
			}
		})
	})
}

func TestStridedViewCopy(t *testing.T) {
	// Copy into every other element: constrict with a strided domain.
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int32](me, RD1(0, 10))
		b := New[int32](me, RDS(P1(0), P1(10), P1(2)))
		b.Domain().ForEach(func(p Point) { b.Set(me, p, int32(100+p.Get(0))) })
		a.Constrict(RDS(P1(0), P1(10), P1(2))).CopyFrom(me, b)
		for i := 0; i < 10; i++ {
			want := int32(0)
			if i%2 == 0 {
				want = int32(100 + i)
			}
			if got := a.Get(me, P1(i)); got != want {
				t.Errorf("a[%d] = %d, want %d", i, got, want)
			}
		}
	})
}

func TestDirectoryIdiom(t *testing.T) {
	// shared_array< ndarray<int,3> > dir(THREADS) from the paper §III-E.
	core.Run(testCfg(3), func(me *core.Rank) {
		dir := core.NewSharedArray[Ref[int32]](me, me.Ranks(), 1)
		grid := New[int32](me, RD3(0, 0, 0, 2, 2, 2).Translate(P3(me.ID()*2, 0, 0)))
		grid.Fill(me, int32(me.ID()+1))
		dir.Set(me, me.ID(), grid.Ref())
		me.Barrier()
		// Every rank reads every other rank's tile through the directory.
		for r := 0; r < me.Ranks(); r++ {
			tile := FromRef(dir.Get(me, r))
			p := tile.Domain().Lo()
			if got := tile.Get(me, p); got != int32(r+1) {
				t.Errorf("dir tile %d value %d, want %d", r, got, r+1)
			}
		}
		me.Barrier()
	})
}

func TestUnstridedFlagAfterViews(t *testing.T) {
	core.Run(testCfg(1), func(me *core.Rank) {
		a := New[int32](me, RD3(0, 0, 0, 4, 4, 4))
		if !a.Unstrided() {
			t.Error("fresh array should be unstrided")
		}
		if a.Constrict(RD3(1, 1, 1, 3, 3, 3)).Unstrided() {
			t.Error("proper constrict view is strided")
		}
		if a.Slice(0, 0).Unstrided() {
			t.Error("slice view is strided")
		}
		if a.Constrict(a.Domain()).Unstrided() != true {
			t.Error("identity constrict keeps unstrided")
		}
	})
}
