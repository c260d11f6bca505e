package core

import (
	"sync/atomic"
	"testing"

	"upcxx/internal/sim"
)

func testCfg(ranks int) Config {
	return Config{Ranks: ranks, Machine: sim.Local, SW: sim.SWUPCXX}
}

func TestRunBasics(t *testing.T) {
	var seen [4]atomic.Bool
	st := Run(testCfg(4), func(me *Rank) {
		if me.Ranks() != 4 {
			t.Errorf("Ranks() = %d, want 4", me.Ranks())
		}
		seen[me.ID()].Store(true)
	})
	for i := range seen {
		if !seen[i].Load() {
			t.Errorf("rank %d never ran", i)
		}
	}
	if st.Ranks != 4 {
		t.Errorf("Stats.Ranks = %d", st.Ranks)
	}
}

// TestStatsFold: a job's statistics fold its ranks' — counts and
// counters summed, the virtual clock and the segment peak the maximum.
func TestStatsFold(t *testing.T) {
	st := Stats{Counters: map[string]float64{}}
	for r := range 3 {
		st.fold(Stats{VirtualNs: float64(r) * 100, SegPeak: uint64(3 - r), AMs: 1, PutBytes: 8,
			Counters: map[string]float64{"c": 1}})
	}
	if st.VirtualNs != 200 || st.SegPeak != 3 || st.AMs != 3 || st.PutBytes != 24 || st.Counters["c"] != 3 {
		t.Fatalf("folded %+v", st)
	}
}

func TestAllocateReadWriteLocal(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		p := Allocate[int64](me, 0, 10)
		for i := 0; i < 10; i++ {
			Write(me, p.Add(i), int64(i*i))
		}
		for i := 0; i < 10; i++ {
			if v := Read(me, p.Add(i)); v != int64(i*i) {
				t.Errorf("elem %d = %d, want %d", i, v, i*i)
			}
		}
		if err := Deallocate(me, p); err != nil {
			t.Error(err)
		}
	})
}

func TestAllocateRemote(t *testing.T) {
	// Paper §III-C: allocate space for 64 integers on thread 2.
	Run(testCfg(4), func(me *Rank) {
		if me.ID() == 0 {
			sp := Allocate[int32](me, 2, 64)
			if sp.Where() != 2 {
				t.Errorf("Where() = %d, want 2", sp.Where())
			}
			for i := 0; i < 64; i++ {
				Write(me, sp.Add(i), int32(100+i))
			}
			// Rank 3 reads them back.
			f := AsyncFuture(me, 3, func(r3 *Rank) int32 {
				var sum int32
				for i := 0; i < 64; i++ {
					sum += Read(r3, sp.Add(i))
				}
				return sum
			})
			var want int32
			for i := 0; i < 64; i++ {
				want += int32(100 + i)
			}
			if got := f.Get(); got != want {
				t.Errorf("remote sum = %d, want %d", got, want)
			}
			if err := Deallocate(me, sp); err != nil { // remote free from rank 0
				t.Error(err)
			}
		}
		me.Barrier()
	})
}

func TestGlobalPtrArithmetic(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			p := Allocate[float64](me, 1, 100)
			q := p.Add(40)
			if q.Diff(p) != 40 {
				t.Errorf("Diff = %d, want 40", q.Diff(p))
			}
			if q.Add(-40) != p {
				t.Error("Add(-40) did not invert Add(40)")
			}
			if p.Where() != 1 || q.Where() != 1 {
				t.Error("arithmetic changed affinity")
			}
		}
		me.Barrier()
	})
}

func TestNullPointer(t *testing.T) {
	var p GlobalPtr[int]
	if !p.IsNull() {
		t.Error("zero GlobalPtr should be null")
	}
	if !Null[int]().IsNull() {
		t.Error("Null() should be null")
	}
	defer func() {
		if recover() == nil {
			t.Error("arithmetic on null pointer should panic")
		}
	}()
	p.Add(1)
}

func TestPODEnforcement(t *testing.T) {
	type hasPtr struct{ P *int }
	Run(testCfg(1), func(me *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("Allocate of pointerful type should panic")
			}
		}()
		Allocate[hasPtr](me, 0, 1)
	})
}

func TestLocalAccess(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		p := Allocate[uint32](me, me.ID(), 4)
		lp := Local(me, p)
		*lp = 7
		if Read(me, p) != 7 {
			t.Error("Local store not visible through Read")
		}
		ls := LocalSlice(me, p, 4)
		ls[3] = 9
		if Read(me, p.Add(3)) != 9 {
			t.Error("LocalSlice store not visible through Read")
		}
		me.Barrier()
	})
}

func TestLocalOnRemotePanics(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		p := Allocate[int](me, me.ID(), 1)
		all := TeamAllGather(me.World(), p)
		if me.ID() == 1 {
			defer func() {
				if recover() == nil {
					t.Error("Local on remote pointer should panic")
				}
			}()
			Local(me, all[0])
		}
	})
}

func TestSharedVar(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		s := NewSharedVar[int64](me)
		if me.ID() == 2 {
			s.Set(me, 42)
		}
		me.Barrier()
		if got := s.Get(me); got != 42 {
			t.Errorf("rank %d read shared var %d, want 42", me.ID(), got)
		}
		if s.Ptr().Where() != 0 {
			t.Error("shared var should live on rank 0")
		}
	})
}

func TestSharedArrayCyclic(t *testing.T) {
	// Default block size 1: element i has affinity i % THREADS (UPC).
	Run(testCfg(4), func(me *Rank) {
		sa := NewSharedArray[int64](me, 100, 1)
		for i := 0; i < 100; i++ {
			if want := i % 4; sa.OwnerOf(i) != want {
				t.Errorf("OwnerOf(%d) = %d, want %d", i, sa.OwnerOf(i), want)
			}
		}
		// Every rank writes its own elements, everyone reads everything.
		for i := me.ID(); i < 100; i += me.Ranks() {
			sa.Set(me, i, int64(i*10))
		}
		me.Barrier()
		for i := 0; i < 100; i++ {
			if v := sa.Get(me, i); v != int64(i*10) {
				t.Errorf("rank %d: sa[%d] = %d, want %d", me.ID(), i, v, i*10)
			}
		}
	})
}

func TestSharedArrayBlocked(t *testing.T) {
	// Block size 10 over 3 ranks, 50 elements: blocks 0..4 dealt
	// round-robin -> ranks 0,1,2,0,1.
	Run(testCfg(3), func(me *Rank) {
		sa := NewSharedArray[int32](me, 50, 10)
		wantOwner := func(i int) int { return (i / 10) % 3 }
		for i := 0; i < 50; i++ {
			if sa.OwnerOf(i) != wantOwner(i) {
				t.Errorf("OwnerOf(%d) = %d, want %d", i, sa.OwnerOf(i), wantOwner(i))
			}
		}
		if me.ID() == 0 {
			for i := 0; i < 50; i++ {
				sa.Set(me, i, int32(i))
			}
		}
		me.Barrier()
		// Local slices hold exactly this rank's blocks in order:
		// rank 0 holds blocks 0,3; rank 1 blocks 1,4; rank 2 block 2.
		ls := sa.LocalSlice(me)
		wantLen := 20
		if me.ID() == 2 {
			wantLen = 10
		}
		if len(ls) != wantLen {
			t.Errorf("rank %d LocalSlice len %d, want %d", me.ID(), len(ls), wantLen)
		}
		if me.ID() == 1 {
			for k := 0; k < 10; k++ {
				if ls[k] != int32(10+k) { // block 1 = elements 10..19
					t.Errorf("rank 1 local[%d] = %d, want %d", k, ls[k], 10+k)
				}
				if ls[10+k] != int32(40+k) { // block 4 = elements 40..49
					t.Errorf("rank 1 local[%d] = %d, want %d", 10+k, ls[10+k], 40+k)
				}
			}
		}
		me.Barrier()
	})
}

func TestSharedArrayPtrPhaseFree(t *testing.T) {
	// Paper §III-B: global pointer arithmetic has no phase; Ptr(i).Add(1)
	// stays on the same rank's memory, unlike Ptr(i+1).
	Run(testCfg(4), func(me *Rank) {
		sa := NewSharedArray[int64](me, 64, 1)
		p := sa.Ptr(0) // rank 0's first local element
		q := p.Add(1)  // rank 0's second local element = global index 4
		if q.Where() != 0 {
			t.Error("phase-free Add changed rank")
		}
		if me.ID() == 0 {
			Write(me, q, 777)
		}
		me.Barrier()
		if got := sa.Get(me, 4); got != 777 {
			t.Errorf("sa[4] = %d, want 777 (pointer arithmetic mismatch)", got)
		}
	})
}

func TestCopyAllDirections(t *testing.T) {
	Run(testCfg(3), func(me *Rank) {
		src := Allocate[int32](me, me.ID(), 16)
		ls := LocalSlice(me, src, 16)
		for i := range ls {
			ls[i] = int32(me.ID()*100 + i)
		}
		all := TeamAllGather(me.World(), src)
		me.Barrier()
		if me.ID() == 0 {
			// Local->local.
			dst := Allocate[int32](me, 0, 16)
			Copy(me, src, dst, 16)
			if LocalSlice(me, dst, 16)[5] != 5 {
				t.Error("local copy failed")
			}
			// Remote get: rank 1 -> rank 0.
			Copy(me, all[1], dst, 16)
			if LocalSlice(me, dst, 16)[5] != 105 {
				t.Error("remote get failed")
			}
			// Remote put: rank 0 -> rank 2's buffer, then third-party
			// copy rank 1 -> rank 2.
			rdst := Allocate[int32](me, 2, 16)
			Copy(me, src, rdst, 16)
			if Read(me, rdst.Add(7)) != 7 {
				t.Error("remote put failed")
			}
			Copy(me, all[1], rdst, 16)
			if Read(me, rdst.Add(7)) != 107 {
				t.Error("third-party copy failed")
			}
		}
		me.Barrier()
	})
}

func TestAsyncCopyWithEvent(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		buf := Allocate[float64](me, me.ID(), 32)
		all := TeamAllGather(me.World(), buf)
		if me.ID() == 0 {
			ls := LocalSlice(me, buf, 32)
			for i := range ls {
				ls[i] = float64(i) * 1.5
			}
			ev := NewEvent()
			AsyncCopy(me, buf, all[1], 32, ev)
			ev.Wait(me)
		}
		me.Barrier()
		if me.ID() == 1 {
			ls := LocalSlice(me, buf, 32)
			if ls[10] != 15 {
				t.Errorf("async copy payload = %v, want 15", ls[10])
			}
		}
	})
}

func TestAsyncCopyFenceCompletesImplicit(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		buf := Allocate[int64](me, me.ID(), 8)
		all := TeamAllGather(me.World(), buf)
		if me.ID() == 0 {
			before := me.Clock()
			for i := 0; i < 4; i++ {
				AsyncCopy(me, buf, all[1], 8, nil)
			}
			AsyncCopyFence(me)
			if me.Clock() <= before {
				t.Error("fence should advance the clock past transfer completion")
			}
			if drained, _ := me.implicit.done(); !drained {
				t.Error("fence should complete the implicit handle")
			}
		}
		me.Barrier()
	})
}

// TestEventOverdrawPanics: a completion with nothing registered must
// panic for an Event as it does for a Promise. A count that went
// negative instead would leave the next Wait blocked forever.
func TestEventOverdrawPanics(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		for _, c := range []struct {
			name string
			done Completer
		}{{"event", NewEvent()}, {"promise", NewPromise(me)}} {
			RegisterWith(c.done, me, 1)
			CompleteAt(c.done, me.Now(), me)
			if p, ok := c.done.(*Promise); ok {
				p.Finalize()
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a completion beyond the registrations did not panic", c.name)
					}
				}()
				CompleteAt(c.done, me.Now(), me)
			}()
		}
	})
}

// TestCopyNegativeCountPanics: every copy form rejects a negative
// count, the Completer-taking one included.
func TestCopyNegativeCountPanics(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		p := Allocate[int64](me, 0, 4)
		for name, copyFn := range map[string]func(){
			"Copy":      func() { Copy(me, p, p.Add(2), -1) },
			"CopyAsync": func() { CopyAsync(me, p, p.Add(2), -1) },
			"AsyncCopy": func() { AsyncCopy(me, p, p.Add(2), -1, NewEvent()) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with a negative count did not panic", name)
					}
				}()
				copyFn()
			}()
		}
	})
}

func TestEventReuse(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		buf := Allocate[int64](me, me.ID(), 4)
		all := TeamAllGather(me.World(), buf)
		ev := NewEvent()
		for iter := 0; iter < 5; iter++ {
			if me.ID() == 0 {
				AsyncCopy(me, buf, all[1], 4, ev)
				ev.Wait(me)
			}
			me.Barrier()
		}
	})
}

func TestOverlapBeatsBlocking(t *testing.T) {
	// Two independent transfers overlapped with async_copy should finish
	// in less virtual time than two blocking copies (the reason
	// async_copy exists, paper §III-D).
	const n = 1 << 16
	overlap := Run(testCfg(3), func(me *Rank) {
		buf := Allocate[byte](me, me.ID(), n)
		all := TeamAllGather(me.World(), buf)
		if me.ID() == 0 {
			AsyncCopy(me, buf, all[1], n, nil)
			AsyncCopy(me, buf, all[2], n, nil)
			AsyncCopyFence(me)
		}
	})
	blocking := Run(testCfg(3), func(me *Rank) {
		buf := Allocate[byte](me, me.ID(), n)
		all := TeamAllGather(me.World(), buf)
		if me.ID() == 0 {
			Copy(me, buf, all[1], n)
			Copy(me, buf, all[2], n)
		}
	})
	if overlap.VirtualNs >= blocking.VirtualNs {
		t.Errorf("overlapped %v ns should beat blocking %v ns", overlap.VirtualNs, blocking.VirtualNs)
	}
}

func TestReadWriteSlice(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		buf := Allocate[uint16](me, me.ID(), 64)
		all := TeamAllGather(me.World(), buf)
		if me.ID() == 0 {
			out := make([]uint16, 64)
			for i := range out {
				out[i] = uint16(i * 3)
			}
			WriteSlice(me, all[1], out)
			in := make([]uint16, 64)
			ReadSlice(me, all[1], in)
			for i := range in {
				if in[i] != out[i] {
					t.Errorf("slice round trip at %d: %d != %d", i, in[i], out[i])
				}
			}
		}
		me.Barrier()
	})
}
