//go:build !race

// Steady-state allocation gate for the registered-task wire path. The
// race detector instruments allocations, so this runs in non-race
// builds only (the CI alloc-gate leg).
package core

import "testing"

// TestAllocsAsyncTaskWire gates the wire path of AsyncTask under
// Finish: issue, execute and acknowledge together may cost at most one
// heap allocation per RPC, amortised over an epoch (what remains is
// per batch and per Finish). AllocsPerRun counts the whole process, so
// rank 0's figure covers both ranks' epochs.
func TestAllocsAsyncTaskWire(t *testing.T) {
	const perEpoch, runs = 2000, 10
	var perRPC float64
	stormJob(t, func(me *Rank, peerCell GlobalPtr[uint64]) (sent uint64) {
		args := make([]byte, 0, 24)
		epoch := uint64(0)
		run := func() {
			sent ^= stormEpoch(me, peerCell, perEpoch, epoch<<32, args)
			epoch++
		}
		if me.ID() == 0 {
			perRPC = testing.AllocsPerRun(runs, run) / (2 * perEpoch)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call, then its runs
				run()
			}
		}
		return sent
	})
	t.Logf("%.3f allocs per RPC", perRPC)
	if perRPC > 1 {
		t.Errorf("AsyncTask wire path: %.2f allocs per RPC, want <= 1", perRPC)
	}
}
