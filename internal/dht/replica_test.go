package dht

import (
	"encoding/binary"
	"testing"

	"upcxx/internal/core"
)

// TestReplicaPlacement pins the successor-placement invariants every
// rank relies on to route without metadata: K distinct in-range ranks,
// primary first, consecutive mod n, clamped to the job size.
func TestReplicaPlacement(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		for _, k := range []int{0, 1, 2, 3, n, n + 5} {
			want := k
			if want < 1 {
				want = 1
			}
			if want > n {
				want = n
			}
			for i := 0; i < 200; i++ {
				key := keyFor(i%5, i)
				rs := ReplicaRanks(key, n, k)
				if len(rs) != want {
					t.Fatalf("n=%d k=%d: got %d replicas, want %d", n, k, len(rs), want)
				}
				seen := make(map[int]bool)
				for j, r := range rs {
					if r < 0 || r >= n {
						t.Fatalf("n=%d k=%d: replica %d out of range", n, k, r)
					}
					if seen[r] {
						t.Fatalf("n=%d k=%d key %#x: rank %d holds two of the K copies: %v", n, k, key, r, rs)
					}
					seen[r] = true
					if j > 0 && r != (rs[j-1]+1)%n {
						t.Fatalf("n=%d k=%d: not successor placement: %v", n, k, rs)
					}
				}
			}
		}
	}
}

// TestReplicatedChecksumMatchesOracle: with K=2 fan-out the checksum
// still counts every key exactly once, so it equals the pure
// ExpectedChecksum oracle (and the unreplicated table's checksum).
func TestReplicatedChecksumMatchesOracle(t *testing.T) {
	const n, perRank = 4, 256
	pairs := make(map[uint64]uint64)
	for r := 0; r < n; r++ {
		for i := 0; i < perRank; i++ {
			k := keyFor(r, i)
			pairs[k] = valFor(k)
		}
	}
	want := ExpectedChecksum(pairs)
	sums := make([]uint64, n)
	held := make([]int64, n)
	core.Run(core.Config{Ranks: n, SegmentBytes: SegBytes(DefaultCapacity(2 * perRank))},
		func(me *core.Rank) {
			tbl := NewWithConfig(me, DefaultCapacity(2*perRank), Config{Replicas: 2, ReadRepair: true})
			for i := 0; i < perRank; i++ {
				k := keyFor(me.ID(), i)
				tbl.Insert(me, k, valFor(k), nil)
			}
			me.Barrier()
			for i := 0; i < perRank; i += 17 {
				k := keyFor((me.ID()+1)%n, i)
				if v, ok := tbl.Lookup(me, k).Wait(me); !ok || v != valFor(k) {
					t.Errorf("rank %d: lookup %#x = (%#x,%v), want (%#x,true)", me.ID(), k, v, ok, valFor(k))
				}
			}
			sums[me.ID()] = tbl.Checksum(me)
			held[me.ID()] = tbl.Entries()
		})
	var total int64
	for r := 0; r < n; r++ {
		if sums[r] != want {
			t.Errorf("rank %d: checksum %x, want oracle %x", r, sums[r], want)
		}
		total += held[r]
	}
	// Fan-out really stored K copies: physical occupancy is twice the
	// logical entry count.
	if total != int64(2*len(pairs)) {
		t.Errorf("physical entries = %d, want %d (K=2 copies of %d keys)", total, 2*len(pairs), len(pairs))
	}
}

// insertPrimaryOnly plants (key, val) at the primary replica only —
// the partial-write state read-repair exists to heal.
func insertPrimaryOnly(me *core.Rank, tbl *Table, key, val uint64) {
	owner := ReplicaRanks(key, me.Ranks(), tbl.k)[0]
	if owner == me.ID() {
		tbl.put(key, val)
		return
	}
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:], key)
	binary.LittleEndian.PutUint64(p[8:], val)
	core.AggSend(me, owner, hInsert, p[:], nil)
}

// TestReadRepairConvergence: keys planted on their primary replica only
// are healed onto every replica by lookups, and the table checksum —
// which counts each key once — is identical before and after repair
// (and equal to the oracle throughout).
func TestReadRepairConvergence(t *testing.T) {
	const n, perRank = 4, 128
	pairs := make(map[uint64]uint64)
	keys := make([]uint64, 0, n*perRank)
	for r := 0; r < n; r++ {
		for i := 0; i < perRank; i++ {
			k := keyFor(r, i)
			pairs[k] = valFor(k)
			keys = append(keys, k)
		}
	}
	want := ExpectedChecksum(pairs)
	core.Run(core.Config{Ranks: n, SegmentBytes: SegBytes(DefaultCapacity(2 * perRank))},
		func(me *core.Rank) {
			tbl := NewWithConfig(me, DefaultCapacity(2*perRank), Config{Replicas: 2, ReadRepair: true})
			for i := 0; i < perRank; i++ {
				k := keyFor(me.ID(), i)
				insertPrimaryOnly(me, tbl, k, valFor(k))
			}
			me.Barrier()
			if got := tbl.Checksum(me); got != want {
				t.Errorf("rank %d: pre-repair checksum %x, want %x", me.ID(), got, want)
			}
			// Every rank reads every key; each lookup consults both
			// replicas and re-inserts into the one that missed the write.
			pend := make([]*Lookup, 0, 64)
			drain := func() {
				for _, l := range pend {
					if v, ok := l.Wait(me); !ok || v != pairs[l.key] {
						t.Errorf("rank %d: lookup %#x = (%#x,%v), want (%#x,true)",
							me.ID(), l.key, v, ok, pairs[l.key])
					}
				}
				pend = pend[:0]
			}
			for _, k := range keys {
				pend = append(pend, tbl.Lookup(me, k))
				if len(pend) == cap(pend) {
					drain()
				}
			}
			drain()
			me.Barrier()
			me.Barrier() // drain handler-issued repair traffic
			// Convergence: every replica of every key now holds it.
			for _, k := range keys {
				for _, r := range ReplicaRanks(k, n, tbl.k) {
					if r != me.ID() {
						continue
					}
					if v, ok := tbl.get(k); !ok || v != pairs[k] {
						t.Errorf("rank %d: replica of %#x not repaired: (%#x,%v)", me.ID(), k, v, ok)
					}
				}
			}
			if got := tbl.Checksum(me); got != want {
				t.Errorf("rank %d: post-repair checksum %x, want %x", me.ID(), got, want)
			}
			// Which ranks' lookups find the stale replicas is up to the
			// scheduler; that every key was repaired at least once is not.
			repairs := core.TeamReduce(me.World(), tbl.Counters()["dht_repairs"],
				func(a, b float64) float64 { return a + b })
			if repairs < float64(len(keys)) {
				t.Errorf("rank %d: job issued %v repairs for %d primary-only keys", me.ID(), repairs, len(keys))
			}
		})
}
