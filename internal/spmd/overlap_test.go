package spmd

import (
	"testing"
	"time"

	"upcxx/internal/bench/gups"
	"upcxx/internal/core"
)

// readNeighbor is one arm of the futures-overlap comparison, best of
// three 2-rank wire jobs: rank 0 reads the `reads` cells rank 1
// published — one blocking Read per cell, or every ReadAsync issued up
// front with the fold chained on by Then — while rank 1 serves from its
// barrier. It fails the test unless rank 0's fold matches the reference,
// and returns the fastest read phase and the job's wire frames per read.
func readNeighbor(t *testing.T, reads int, futures bool) (secs, framesPerOp float64) {
	t.Helper()
	cell := func(i int) uint64 { return gups.Mix64(1<<32 + uint64(i)) }
	var want uint64
	for i := 0; i < reads; i++ {
		want ^= gups.Mix64(cell(i) + uint64(i))
	}
	for rep := 0; rep < 3; rep++ {
		var acc uint64
		var dt time.Duration
		stats, err := RunWireLocal(2, reads*8+(1<<17), core.Config{}, func(me *core.Rank) {
			tbl := core.Allocate[uint64](me, me.ID(), reads)
			for i := 0; i < reads; i++ {
				core.Write(me, tbl.Add(i), cell(i))
			}
			nbr := core.TeamAllGather(me.World(), tbl)[1]
			me.Barrier()
			if me.ID() == 0 {
				t0 := time.Now()
				if futures {
					core.Finish(me, func() {
						for i := 0; i < reads; i++ {
							core.Then(core.ReadAsync(me, nbr.Add(i)), func(v uint64) struct{} {
								acc ^= gups.Mix64(v + uint64(i))
								return struct{}{}
							})
						}
					})
				} else {
					for i := 0; i < reads; i++ {
						acc ^= gups.Mix64(core.Read(me, nbr.Add(i)) + uint64(i))
					}
				}
				dt = time.Since(t0)
			}
			me.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		if acc != want {
			t.Fatalf("futures=%v: fold %016x, reference %016x", futures, acc, want)
		}
		var frames float64
		for _, st := range stats {
			frames += st.Counters["wire_tx_frames"]
		}
		if rep == 0 || dt.Seconds() < secs {
			secs, framesPerOp = dt.Seconds(), frames/float64(reads)
		}
	}
	return secs, framesPerOp
}

// TestFuturesOverlapBeatsBlocking: over the real TCP conduit, chained
// non-blocking reads pipeline on the wire and beat a round-trip stall
// per read. The margin is deliberately loose (1.5x where the typical win
// is 2.5-4x) so a shared machine's noise cannot flake it, and only the
// plain build asserts it: race instrumentation inflates per-op CPU cost
// until it dominates the latency the futures win back.
func TestFuturesOverlapBeatsBlocking(t *testing.T) {
	const reads = 2048
	blocking, blockingFrames := readNeighbor(t, reads, false)
	futures, futuresFrames := readNeighbor(t, reads, true)
	t.Logf("blocking %.3gs, futures %.3gs: %.1fx", blocking, futures, blocking/futures)
	if !raceEnabled && futures*1.5 > blocking {
		t.Errorf("futures (%.3gs) not at least 1.5x faster than blocking reads (%.3gs)", futures, blocking)
	}
	// Both move one get request/reply pair per read: the win is
	// pipelining, not fewer messages. A ReadAsync that regressed to
	// blocking internally would show here.
	if futuresFrames > blockingFrames+0.5 {
		t.Errorf("futures send %.2f frames/read vs blocking %.2f", futuresFrames, blockingFrames)
	}
}
