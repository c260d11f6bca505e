package spmd

import (
	"testing"
	"time"

	"upcxx/internal/core"
)

// TestAsyncCopyIssueDoesNotBlock: issuing AsyncCopy or WriteSliceAsync
// at a peer that is not polling must return at once, whatever the
// completion target — an Event, a Promise, or the implicit handle.
// Rank 1 sits on a Go channel without servicing progress, and rank 0
// releases it only after every issue has returned; an issue that waited
// for the peer's reply would hang the job.
func TestAsyncCopyIssueDoesNotBlock(t *testing.T) {
	const n = 64
	release := make(chan struct{})
	job := make(chan error, 1)
	go func() {
		_, err := RunWireLocal(2, copyWireSegBytes(8*n), core.Config{}, func(me *core.Rank) {
			src := core.Allocate[uint64](me, me.ID(), 4*n)
			if me.ID() == 1 {
				vals := core.LocalSlice(me, src, 4*n)
				for i := range vals {
					vals[i] = mix(uint64(i))
				}
			}
			peer := core.TeamAllGather(me.World(), src)[1]
			me.Barrier()
			if me.ID() == 1 {
				<-release
				me.Barrier()
				return
			}
			dst := core.Allocate[uint64](me, 0, 3*n)
			out := make([][]uint64, 3)
			ev, p := core.NewEvent(), core.NewPromise(me)
			for i, done := range []core.Completer{ev, p, nil} {
				core.AsyncCopy(me, peer.Add(i*n), dst.Add(i*n), n, done)
				out[i] = make([]uint64, n)
				for j := range out[i] {
					out[i][j] = uint64(i+1)<<32 | uint64(j)
				}
				core.WriteSliceAsync(me, peer.Add(3*n+i*n/4), out[i][:n/4], done)
			}
			close(release)
			ev.Wait(me)
			p.Finalize().Wait()
			core.AsyncCopyFence(me)
			got := core.LocalSlice(me, dst, 3*n)
			for j := range got {
				if got[j] != mix(uint64(j)) {
					t.Errorf("dst[%d] = %#x, want %#x", j, got[j], mix(uint64(j)))
					break
				}
			}
			back := make([]uint64, 3*n/4)
			core.ReadSlice(me, peer.Add(3*n), back)
			for i := range out {
				for j, v := range out[i][:n/4] {
					if back[i*n/4+j] != v {
						t.Errorf("put %d: [%d] = %#x, want %#x", i, j, back[i*n/4+j], v)
						break
					}
				}
			}
			me.Barrier()
		})
		job <- err
	}()
	select {
	case err := <-job:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a non-blocking copy waited for a peer that was not polling")
	}
}
