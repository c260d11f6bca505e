package spmd

import (
	"fmt"
	"math"
	"testing"
	"time"

	"upcxx/internal/core"
)

// runHierChecksum executes a registered program over the hierarchical
// conduit (in one process: real mmap'd files, real TCP between hosts)
// and returns the agreed checksum.
func runHierChecksum(t *testing.T, p Prog, n, ppn, scale int) uint64 {
	t.Helper()
	sums := make([]uint64, n)
	_, err := RunHierLocal(n, ppn, p.SegBytes(n, scale), core.Config{}, func(me *core.Rank) {
		sums[me.ID()] = p.Run(me, scale)
	})
	if err != nil {
		t.Fatalf("hier %s n=%d ppn=%d: %v", p.Name, n, ppn, err)
	}
	for r, s := range sums {
		if s != sums[0] {
			t.Fatalf("hier %s n=%d ppn=%d: rank %d checksum %x != rank 0 %x", p.Name, n, ppn, r, s, sums[0])
		}
	}
	return sums[0]
}

// runProcTopoChecksum is runProcChecksum with an explicit topology, for
// comparing against hier runs of the same shape.
func runProcTopoChecksum(t *testing.T, p Prog, n, ppn, scale int) uint64 {
	t.Helper()
	sums := make([]uint64, n)
	core.Run(core.Config{Ranks: n, SegmentBytes: p.SegBytes(n, scale), Nodes: HierNodes(n, ppn)}, func(me *core.Rank) {
		sums[me.ID()] = p.Run(me, scale)
	})
	for r, s := range sums {
		if s != sums[0] {
			t.Fatalf("proc %s n=%d ppn=%d: rank %d checksum %x != rank 0 %x", p.Name, n, ppn, r, s, sums[0])
		}
	}
	return sums[0]
}

// TestHierBackendAgrees extends the backend-agreement gate to the
// two-level conduit: at every (ranks, procs-per-node) shape, the
// hierarchical run must reproduce the in-process checksum computed
// under the identical topology. The teams program runs the SplitTeam
// subset collectives at 1/2/4/8 ranks; ring and gups sweep the
// one-sided and atomic planes.
func TestHierBackendAgrees(t *testing.T) {
	cases := []struct {
		prog  string
		scale int
		n     []int
	}{
		{"teams", 0, []int{1, 2, 4, 8}},
		{"ring", 64, []int{2, 4}},
		{"gups", 10, []int{4}},
		{"dht", 384, []int{4}},
		{"collloop", 100, []int{4}},
	}
	for _, tc := range cases {
		p, ok := Lookup(tc.prog)
		if !ok {
			t.Fatalf("program %q not registered", tc.prog)
		}
		scale := tc.scale
		if scale == 0 {
			scale = p.DefaultScale
		}
		for _, n := range tc.n {
			ppns := []int{1}
			if n >= 2 {
				ppns = append(ppns, 2)
			}
			if n > 2 {
				ppns = append(ppns, n)
			}
			for _, ppn := range ppns {
				t.Run(fmt.Sprintf("%s/n=%d/ppn=%d", tc.prog, n, ppn), func(t *testing.T) {
					proc := runProcTopoChecksum(t, p, n, ppn, scale)
					hier := runHierChecksum(t, p, n, ppn, scale)
					if proc != hier {
						t.Fatalf("checksum mismatch: proc %016x, hier %016x", proc, hier)
					}
					if ppn == 1 {
						// One rank per host degenerates to the flat wire
						// topology; the tcp backend must agree too.
						wire := runWireChecksum(t, p, n, scale)
						if wire != hier {
							t.Fatalf("checksum mismatch: tcp %016x, hier %016x", wire, hier)
						}
					}
				})
			}
		}
	}
}

// hierCounterProbe is a put/get workload between two CO-LOCATED ranks;
// the returned stats prove which plane carried the bytes.
func hierCounterProbe(me *core.Rank) {
	partner := me.ID() ^ 1
	blk := core.Allocate[uint64](me, partner, 128)
	vals := make([]uint64, 128)
	for i := range vals {
		vals[i] = uint64(me.ID())<<32 + uint64(i)
	}
	core.WriteSlice(me, blk, vals)
	me.Barrier()
	back := make([]uint64, 128)
	core.ReadSlice(me, blk, back)
	for i, v := range back {
		if v != vals[i] {
			panic(fmt.Sprintf("spmd: hier probe readback[%d] = %#x, want %#x", i, v, vals[i]))
		}
	}
	me.Barrier()
}

// TestHierShmBypassesWire is the locality acceptance test: the same
// put/get workload between two co-located ranks moves ZERO put/get
// frames on the hierarchical conduit (the bytes go through the mmap'd
// segment) but a nonzero number on pure TCP.
func TestHierShmBypassesWire(t *testing.T) {
	const n = 2
	hier, err := RunHierLocal(n, n, 1<<17, core.Config{}, hierCounterProbe)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := RunWireLocal(n, 1<<17, core.Config{}, hierCounterProbe)
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range hier {
		for _, key := range []string{"wire_tx_frames_put", "wire_tx_frames_get", "wire_tx_frames_alloc"} {
			if v := st.Counters[key]; v != 0 {
				t.Errorf("hier rank %d: %s = %v, want 0 (co-located ops must ride shm)", r, key, v)
			}
		}
		if st.Counters["shm_tx_msgs"] == 0 && r != 0 {
			// Rank 1 allocates on rank 0 over the shm control plane.
			t.Errorf("hier rank %d: no shm traffic at all: %v", r, st.Counters)
		}
	}
	var wirePuts float64
	for _, st := range wire {
		wirePuts += st.Counters["wire_tx_frames_put"]
	}
	if wirePuts == 0 {
		t.Error("tcp run moved zero put frames; the probe no longer measures anything")
	}
}

// barrierUsec times iters world barriers on an n-rank job — over the
// flat TCP wire, or with all n ranks co-located on one hierarchical host
// — and returns rank 0's microseconds per barrier, best of five jobs.
func barrierUsec(t *testing.T, n, iters int, hier bool) float64 {
	t.Helper()
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		var dt time.Duration
		body := func(me *core.Rank) {
			w := me.World()
			w.Barrier() // warm the conduit
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				w.Barrier()
			}
			if me.ID() == 0 {
				dt = time.Since(t0)
			}
		}
		var err error
		if hier {
			_, err = RunHierLocal(n, n, 1<<17, core.Config{}, body)
		} else {
			_, err = RunWireLocal(n, 1<<17, core.Config{}, body)
		}
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, dt.Seconds()*1e6/float64(iters))
	}
	return best
}

// TestHierBeatsFlatBarrier: with 8 co-located ranks the hierarchical
// barrier (shm arrive/release, one leader, no wire phase) beats the flat
// wire barrier's TCP round trips, by a margin wide enough to hold on any
// machine once best-of-five suppresses scheduler noise.
func TestHierBeatsFlatBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	const n, iters = 8, 48
	flat := barrierUsec(t, n, iters, false)
	hier := barrierUsec(t, n, iters, true)
	t.Logf("flat barrier %.1fus, hier (ppn=%d) barrier %.1fus", flat, n, hier)
	if hier >= flat {
		t.Errorf("hierarchical barrier (%.1fus) not faster than flat (%.1fus) at %d co-located ranks", hier, flat, n)
	}
}
