package core_test

import (
	"testing"

	"upcxx/internal/agg"
	"upcxx/internal/core"
	"upcxx/internal/spmd"
)

// TestRankHotWordsIsolated pins the rule of DESIGN.md "Rank-private
// state and cache lines" on every backend whose ranks share a heap: no
// 64-byte line holds per-operation-written words of two different
// ranks. It lists each rank's words (core.HotSpans: endpoint clock and
// counters, the rank handle's launch/execute/ack state, the finish
// stack — whose entries carry the executing tasks — and scope free list
// arrays, recycled task scopes, aggregator header and per-destination
// buffers, conduit token words, the transport endpoint's send side and
// per-peer dispatched counts) after the fixed storm, so lazily allocated state exists (its
// relay task is what takes and recycles a scope: the other bodies are
// leaves, which take none), and while every rank is still alive.
func TestRankHotWordsIsolated(t *testing.T) {
	adaptive := core.Config{Agg: agg.Config{Adaptive: true}}
	for _, tc := range []struct {
		name string
		n    int
		run  func(main func(me *core.Rank)) error
	}{
		{"proc", 4, func(main func(me *core.Rank)) error {
			core.Run(core.Config{Ranks: 4}, main)
			return nil
		}},
		{"tcp", 2, func(main func(me *core.Rank)) error {
			_, err := spmd.RunWireLocal(2, 1<<17, adaptive, main)
			return err
		}},
		{"hier", 4, func(main func(me *core.Rank)) error {
			_, err := spmd.RunHierLocal(4, 2, 1<<17, adaptive, main)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spans := make([][]core.HotSpan, tc.n)
			err := tc.run(func(me *core.Rank) {
				fixedStorm(t, me, 0)
				spans[me.ID()] = core.HotSpans(me)
				me.Barrier() // nobody's state is freed before everybody's is listed
			})
			if err != nil {
				t.Fatal(err)
			}
			type owner struct {
				rank int
				what string
			}
			lines := map[uintptr]owner{}
			for rank, ss := range spans {
				for _, s := range ss {
					for line := s.Lo / 64; line <= (s.Hi-1)/64; line++ {
						if o, taken := lines[line]; taken && o.rank != rank {
							t.Errorf("cache line %#x holds rank %d's %s and rank %d's %s",
								line*64, o.rank, o.what, rank, s.What)
						}
						lines[line] = owner{rank, s.What}
					}
				}
			}
		})
	}
}
