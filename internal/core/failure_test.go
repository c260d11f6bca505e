package core

import (
	"errors"
	"testing"
	"testing/quick"

	"upcxx/internal/segment"
	"upcxx/internal/sim"
)

// Failure injection: exhaustion, invalid arguments and misuse must fail
// loudly and precisely, not corrupt state.

func TestTryAllocateLocalExhaustion(t *testing.T) {
	Run(Config{Ranks: 1, SegmentBytes: 1 << 12}, func(me *Rank) {
		_, err := TryAllocate[byte](me, 0, 1<<13)
		if !errors.Is(err, segment.ErrOutOfMemory) {
			t.Errorf("want ErrOutOfMemory, got %v", err)
		}
		// The failure must not have leaked reservation: a fitting
		// allocation still succeeds.
		if _, err := TryAllocate[byte](me, 0, 1<<10); err != nil {
			t.Errorf("small allocation after failed big one: %v", err)
		}
	})
}

func TestTryAllocateRemoteExhaustion(t *testing.T) {
	Run(Config{Ranks: 2, SegmentBytes: 1 << 12}, func(me *Rank) {
		if me.ID() == 0 {
			if _, err := TryAllocate[byte](me, 1, 1<<13); !errors.Is(err, segment.ErrOutOfMemory) {
				t.Errorf("remote exhaustion: want ErrOutOfMemory, got %v", err)
			}
			// Rank 1's segment remains usable.
			if _, err := TryAllocate[byte](me, 1, 64); err != nil {
				t.Errorf("remote allocation after failure: %v", err)
			}
		}
		me.Barrier()
	})
}

func TestTryAllocateInvalidRank(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if _, err := TryAllocate[int](me, 7, 1); err == nil {
			t.Error("allocate on rank 7 of 2 should error")
		}
		if _, err := TryAllocate[int](me, -1, 1); err == nil {
			t.Error("allocate on rank -1 should error")
		}
		if _, err := TryAllocate[int](me, 0, -3); err == nil {
			t.Error("negative count should error")
		}
	})
}

func TestDeallocateForeignOffsetFails(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			p := Allocate[int64](me, 1, 4)
			if err := Deallocate(me, p); err != nil {
				t.Errorf("first remote free: %v", err)
			}
			if err := Deallocate(me, p); err == nil {
				t.Error("double remote free should error")
			}
			if err := Deallocate(me, Null[int64]()); err != nil {
				t.Error("freeing null should be a no-op")
			}
		}
		me.Barrier()
	})
}

func TestAllocateFreeStress(t *testing.T) {
	// Interleaved cross-rank allocate/free churn must leave every
	// segment empty-equivalent (peak recorded, nothing leaked).
	st := Run(Config{Ranks: 4, SegmentBytes: 1 << 16}, func(me *Rank) {
		var live []GlobalPtr[int64]
		for round := 0; round < 30; round++ {
			target := (me.ID() + round) % me.Ranks()
			p, err := TryAllocate[int64](me, target, 16)
			if err == nil {
				live = append(live, p)
			}
			if round%3 == 2 && len(live) > 0 {
				if err := Deallocate(me, live[0]); err != nil {
					t.Errorf("free: %v", err)
				}
				live = live[1:]
			}
		}
		for _, p := range live {
			if err := Deallocate(me, p); err != nil {
				t.Errorf("final free: %v", err)
			}
		}
		me.Barrier()
	})
	if st.SegPeak == 0 {
		t.Error("stress should have recorded a nonzero peak")
	}
}

// TestGlobalPtrPropertyArithmetic: Add/Diff form a torsor (Add(n).Diff(p)
// == n, Add is associative in offsets) and never change affinity.
func TestGlobalPtrPropertyArithmetic(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() != 0 {
			return
		}
		base := Allocate[int32](me, 1, 1024)
		f := func(a, b int16) bool {
			n, m := int(a%512), int(b%512)
			if n < 0 {
				n = -n
			}
			if m < 0 {
				m = -m
			}
			p := base.Add(n)
			q := p.Add(m)
			return q.Diff(base) == n+m &&
				q.Diff(p) == m &&
				q.Where() == base.Where() &&
				q.Add(-(n+m)) == base
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestSharedArrayPropertyLayout: for random sizes and block sizes, every
// element has exactly one owner, owners match OwnerOf, and local slices
// tile the array.
func TestSharedArrayPropertyLayout(t *testing.T) {
	f := func(sizeRaw, bsRaw uint8) bool {
		size := int(sizeRaw%200) + 1
		bs := int(bsRaw%9) + 1
		ok := true
		Run(Config{Ranks: 3, Machine: sim.Local}, func(me *Rank) {
			sa := NewSharedArray[int32](me, size, bs)
			if me.ID() == 0 {
				for i := 0; i < size; i++ {
					o := sa.OwnerOf(i)
					if o != (i/bs)%3 {
						ok = false
					}
					if sa.Ptr(i).Where() != o {
						ok = false
					}
				}
			}
			// Mark every element through its owner.
			for i := 0; i < size; i++ {
				if sa.OwnerOf(i) == me.ID() {
					sa.Set(me, i, int32(i)+1)
				}
			}
			me.Barrier()
			if me.ID() == 0 {
				for i := 0; i < size; i++ {
					if sa.Get(me, i) != int32(i)+1 {
						ok = false
					}
				}
			}
			me.Barrier()
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSharedArrayIndexOutOfRange(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		sa := NewSharedArray[int64](me, 10, 1)
		defer func() {
			if recover() == nil {
				t.Error("out-of-range index should panic")
			}
		}()
		sa.Get(me, 10)
	})
}

func TestZeroSizedSharedArray(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		sa := NewSharedArray[int64](me, 0, 1)
		if sa.Len() != 0 {
			t.Error("len")
		}
		if sa.LocalSlice(me) != nil {
			t.Error("zero-size array should have nil local slices")
		}
		me.Barrier()
	})
}

func TestEmptyCopyAndWait(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		p := Allocate[int64](me, me.ID(), 4)
		all := TeamAllGather(me.World(), p)
		Copy(me, p, all[1-me.ID()], 0) // zero-length: no-op
		ev := NewEvent()
		AsyncCopy(me, p, all[1-me.ID()], 0, ev) // still signals
		ev.Wait(me)
		me.Barrier()
	})
}
