package spmd

import (
	"fmt"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/transport"
)

// Wire-backend coverage for the implicit-handle non-blocking copy path
// (WriteSliceAsync with a nil completion + AsyncCopyFence), previously
// exercised only in-process — including transfers straddling the
// transport's MaxPayload fragmentation boundary, where one logical put
// becomes several chunked frames.

// copyWireSegBytes sizes segments for the boundary transfers: the
// largest test slice plus allocator slack.
func copyWireSegBytes(elems int) int { return elems*8 + (1 << 18) }

// wirePutBoundarySizes are element counts whose byte sizes bracket the
// chunking threshold of the wire data plane (MaxPayload - 8 bytes of
// put-offset header): one chunk, exactly one chunk, several chunks.
func wirePutBoundarySizes() []int {
	maxChunkBytes := transport.MaxPayload - 8
	return []int{
		0,
		1,
		maxChunkBytes/8 - 1,
		maxChunkBytes / 8, // MaxPayload boundary: last single-frame put
		maxChunkBytes/8 + 1,
		2*maxChunkBytes/8 + 3,
	}
}

func TestWriteSliceAsyncFenceOnWire(t *testing.T) {
	sizes := wirePutBoundarySizes()
	maxElems := sizes[len(sizes)-1]
	fill := func(n int, salt uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = mix(salt<<32 + uint64(i))
		}
		return s
	}
	_, err := RunWireLocal(2, copyWireSegBytes(maxElems), core.Config{}, func(me *core.Rank) {
		if me.ID() == 0 {
			for round, n := range sizes {
				dst := core.Allocate[uint64](me, 1, maxElems+1)
				want := fill(n, uint64(round+1))
				// Implicit-handle async puts: no event, no promise;
				// AsyncCopyFence is the only synchronization.
				core.WriteSliceAsync(me, dst, want, nil)
				core.AsyncCopyFence(me)
				got := make([]uint64, n)
				core.ReadSlice(me, dst, got)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("size %d: dst[%d] = %#x, want %#x", n, i, got[i], want[i])
						break
					}
				}
				if err := core.Deallocate(me, dst); err != nil {
					t.Errorf("size %d: %v", n, err)
				}
			}
		}
		me.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsyncCopyEventOnWireAtBoundary(t *testing.T) {
	// AsyncCopy completing into an event, remote→local at the
	// fragmentation boundary, on the wire backend.
	maxChunkBytes := transport.MaxPayload - 8
	sizes := []int{maxChunkBytes / 8, maxChunkBytes/8 + 1}
	maxElems := sizes[len(sizes)-1]
	_, err := RunWireLocal(2, copyWireSegBytes(2*maxElems+2), core.Config{}, func(me *core.Rank) {
		src := core.Allocate[uint64](me, me.ID(), maxElems)
		vals := make([]uint64, maxElems)
		for i := range vals {
			vals[i] = mix(uint64(me.ID())<<40 + uint64(i))
		}
		core.WriteSlice(me, src, vals)
		dir := core.TeamAllGather(me.World(), src)
		me.Barrier()

		if me.ID() == 0 {
			for _, n := range sizes {
				dst := core.Allocate[uint64](me, 0, n)
				ev := core.NewEvent()
				core.AsyncCopy(me, dir[1], dst, n, ev)
				ev.Wait(me)
				got := core.LocalSlice(me, dst, n)
				for i := 0; i < n; i++ {
					want := mix(uint64(1)<<40 + uint64(i))
					if got[i] != want {
						t.Errorf("n=%d: dst[%d] = %#x, want %#x", n, i, got[i], want)
						break
					}
				}
				if err := core.Deallocate(me, dst); err != nil {
					t.Errorf("n=%d: %v", n, err)
				}
			}
		}
		me.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFutureOpsOnWireAtBoundary(t *testing.T) {
	// The futures-first slice ops (WriteSliceFuture / ReadSliceAsync)
	// across the chunking boundary on the wire's async data plane.
	maxChunkBytes := transport.MaxPayload - 8
	for _, n := range []int{maxChunkBytes / 8, maxChunkBytes/8 + 1} {
		n := n
		t.Run(fmt.Sprintf("elems=%d", n), func(t *testing.T) {
			_, err := RunWireLocal(2, copyWireSegBytes(n), core.Config{}, func(me *core.Rank) {
				if me.ID() == 0 {
					dst := core.Allocate[uint64](me, 1, n)
					want := make([]uint64, n)
					for i := range want {
						want[i] = mix(0xABC<<32 + uint64(i))
					}
					core.WriteSliceFuture(me, dst, want).Wait()
					got := core.ReadSliceAsync(me, dst, make([]uint64, n)).Get()
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("dst[%d] = %#x, want %#x", i, got[i], want[i])
							break
						}
					}
				}
				me.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
