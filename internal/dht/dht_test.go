package dht

import (
	"sync"
	"testing"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/bench/gups"
	"upcxx/internal/core"
	"upcxx/internal/gasnet"
	"upcxx/internal/segment"
	"upcxx/internal/transport"
)

func keyFor(rank, i int) uint64 {
	return gups.Mix64(uint64(rank)<<32+uint64(i))<<1 | 1 // odd keys only
}

func valFor(key uint64) uint64 { return gups.Mix64(key ^ 0x5851F42D4C957F2D) }

// workload inserts perRank keys from every rank, verifies a sample by
// lookup (including a key that was never inserted — all inserted keys
// are odd), and returns the table checksum.
func workload(t *testing.T, me *core.Rank, perRank int) uint64 {
	tbl := New(me, DefaultCapacity(perRank))
	for i := 0; i < perRank; i++ {
		k := keyFor(me.ID(), i)
		tbl.Insert(me, k, valFor(k), nil)
	}
	me.Barrier()

	sample := perRank
	if sample > 64 {
		sample = 64
	}
	pend := make([]*Lookup, sample)
	for s := 0; s < sample; s++ {
		pend[s] = tbl.Lookup(me, keyFor(me.ID(), s*(perRank/sample)))
	}
	miss := tbl.Lookup(me, uint64(2+4*me.ID())) // even: never inserted
	for s, l := range pend {
		k := keyFor(me.ID(), s*(perRank/sample))
		v, ok := l.Wait(me)
		if !ok || v != valFor(k) {
			t.Errorf("rank %d: lookup %#x = (%#x,%v), want (%#x,true)", me.ID(), k, v, ok, valFor(k))
		}
	}
	if _, ok := miss.Wait(me); ok {
		t.Errorf("rank %d: lookup of never-inserted key reported found", me.ID())
	}
	return tbl.Checksum(me)
}

func runProc(t *testing.T, n, perRank int) []uint64 {
	sums := make([]uint64, n)
	core.Run(core.Config{Ranks: n, SegmentBytes: SegBytes(DefaultCapacity(perRank))},
		func(me *core.Rank) { sums[me.ID()] = workload(t, me, perRank) })
	return sums
}

func runWire(t *testing.T, n, perRank int, cfg core.Config) ([]uint64, []core.Stats) {
	t.Helper()
	eps := make([]*transport.TCPEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := transport.ListenTCP(i, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	sums := make([]uint64, n)
	stats := make([]core.Stats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seg := segment.New(SegBytes(DefaultCapacity(perRank)))
			cd := gasnet.NewWireConduit(eps[i], seg, cfg.Wire(i))
			defer cd.Close()
			if err := cd.Connect(addrs, time.Time{}); err != nil {
				t.Errorf("rank %d connect: %v", i, err)
				return
			}
			stats[i] = core.RunWire(cfg, cd, seg, func(me *core.Rank) {
				sums[me.ID()] = workload(t, me, perRank)
			})
			cd.Goodbye()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return sums, stats
}

// TestBackendsAgree is the DHT acceptance gate: identical verified
// checksums on the in-process and wire backends at 1 and 4 ranks.
func TestBackendsAgree(t *testing.T) {
	const perRank = 512
	for _, n := range []int{1, 2, 4} {
		proc := runProc(t, n, perRank)
		wire, _ := runWire(t, n, perRank, core.Config{})
		for r := 1; r < n; r++ {
			if proc[r] != proc[0] {
				t.Fatalf("n=%d: proc rank %d checksum %x != rank 0 %x", n, r, proc[r], proc[0])
			}
			if wire[r] != wire[0] {
				t.Fatalf("n=%d: wire rank %d checksum %x != rank 0 %x", n, r, wire[r], wire[0])
			}
		}
		if proc[0] != wire[0] {
			t.Fatalf("n=%d: proc checksum %x != wire checksum %x", n, proc[0], wire[0])
		}
	}
}

// TestOverwriteAndEntries pins overwrite semantics: reinserting a key
// replaces its value without growing the table.
func TestOverwriteAndEntries(t *testing.T) {
	core.Run(core.Config{Ranks: 2, SegmentBytes: SegBytes(256)}, func(me *core.Rank) {
		tbl := New(me, 256)
		if me.ID() == 0 {
			for i := 0; i < 50; i++ {
				tbl.Insert(me, keyFor(9, i), 1, nil)
			}
			for i := 0; i < 50; i++ {
				tbl.Insert(me, keyFor(9, i), 2, nil)
			}
		}
		me.Barrier()
		total := core.TeamReduce(me.World(), tbl.Entries(), func(a, b int64) int64 { return a + b })
		if total != 50 {
			t.Errorf("entries = %d after duplicate inserts, want 50", total)
		}
		for i := 0; i < 50; i += 7 {
			if v, ok := tbl.Lookup(me, keyFor(9, i)).Wait(me); !ok || v != 2 {
				t.Errorf("key %d = (%d,%v), want (2,true) after overwrite", i, v, ok)
			}
		}
		me.Barrier()
	})
}

// TestAggregationServesLookups pins the batched request/response path
// on the wire: many lookups against one owner coalesce, and the wire
// counters show the reply traffic batching too.
func TestAggregationServesLookups(t *testing.T) {
	_, stats := runWire(t, 2, 512, core.Config{})
	for r, st := range stats {
		if st.Counters["agg_batches"] == 0 {
			t.Errorf("rank %d shipped no aggregation batches", r)
		}
	}
}

// TestAggregationWins: the same insert-and-lookup workload builds the
// identical table with aggregation on (the default thresholds) and off
// (MaxOps 1: every op its own batch), and aggregated it costs at least
// 4x fewer wire frames, in batches of real size.
func TestAggregationWins(t *testing.T) {
	const n, perRank = 2, 1024
	run := func(cfg agg.Config) (sum uint64, frames, opsPerBatch float64) {
		sums, stats := runWire(t, n, perRank, core.Config{Agg: cfg})
		var batches, ops float64
		for _, st := range stats {
			frames += st.Counters["wire_tx_frames"]
			batches += st.Counters["agg_batches"]
			ops += st.Counters["agg_ops"]
		}
		return sums[0], frames, ops / batches
	}
	onSum, on, opsPerBatch := run(agg.Config{})
	offSum, off, _ := run(agg.Config{MaxOps: 1})
	if onSum != offSum {
		t.Fatalf("checksum changed with aggregation: on=%016x off=%016x", onSum, offSum)
	}
	if off < n*perRank/2 {
		t.Fatalf("unaggregated run sent only %v frames for %d inserts", off, n*perRank)
	}
	if off < 4*on {
		t.Errorf("frame reduction %.1fx (on=%v off=%v), want >= 4x", off/on, on, off)
	}
	if opsPerBatch < 2 {
		t.Errorf("agg ops/batch = %v, want real coalescing", opsPerBatch)
	}
	t.Logf("frames: on=%v off=%v (%.1fx), ops/batch=%.1f", on, off, off/on, opsPerBatch)
}
