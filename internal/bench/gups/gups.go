// Package gups implements the Random Access (GUPS) benchmark of the
// paper's §V-A (Fig 4 and Table IV): random xor updates to a globally
// shared table, the classical PGAS worst case with no data locality. Two
// flavors run the identical update loop — "upc" under the Berkeley UPC
// software profile and "upcxx" under the UPC++ library profile — so the
// measured gap is exactly the shared-access software overhead the paper
// isolates.
package gups

import (
	"upcxx/internal/core"
	"upcxx/internal/sim"
	"upcxx/internal/upc"
)

// POLY is the HPCC Random Access LFSR polynomial.
const POLY = 0x0000000000000007

// Params configures a run.
type Params struct {
	Ranks          int
	LogTableSize   int // table size = 2^LogTableSize words, distributed cyclically
	UpdatesPerRank int
	Flavor         string // "upc" or "upcxx"
	Machine        sim.Machine
	Virtual        bool
	Atomic         bool // use RMW updates (conflict-free; for verification)
}

// Result reports the benchmark's metrics in the paper's units.
type Result struct {
	Ranks         int
	Updates       int64
	Seconds       float64
	GUPS          float64 // giga-updates per second, Table IV
	UsecPerUpdate float64 // latency per update, Fig 4
	Errors        int64   // verification mismatches (Atomic runs: must be 0)
}

// Counters reports the run's metrics as named counters for the benchmark
// harness (units in the names; "updates_per_sec" is GUPS*1e9).
func (r Result) Counters() map[string]float64 {
	c := map[string]float64{
		"updates":         float64(r.Updates),
		"updates_per_sec": r.GUPS * 1e9,
		"gups":            r.GUPS,
		"usec_per_update": r.UsecPerUpdate,
	}
	if r.Errors > 0 {
		c["errors"] = float64(r.Errors)
	}
	return c
}

// SPMD is the benchmark's conduit-portable body: the HPCC update loop
// with atomic xor updates, run on an already-running rank (either an
// in-process job or one OS process of a wire job), followed by the
// involution verification (replaying the updates must restore the
// table). It returns a table checksum folded in global index order —
// atomic xor updates commute, so for a given rank count and update
// budget the checksum is identical on every conduit backend — and the
// count of verification mismatches, which must be zero.
func SPMD(me *core.Rank, logTableSize, updatesPerRank int) (checksum uint64, errors int64) {
	tableSize := uint64(1) << logTableSize
	table := core.NewSharedArray[uint64](me, int(tableSize), 1)
	local := table.LocalSlice(me)
	for k := range local {
		local[k] = uint64(k*me.Ranks() + me.ID())
	}
	me.Barrier()

	mask := tableSize - 1
	ran := seedFor(me.ID())
	for i := 0; i < updatesPerRank; i++ {
		ran = nextRan(ran)
		core.AtomicXor(me, table.Ptr(int(ran&mask)), ran)
	}
	me.Barrier()

	// Checksum the updated table: mix each (global index, value) pair and
	// xor-fold, so the result is independent of rank count partitioning
	// only through the table contents themselves.
	var sum uint64
	for k, v := range table.LocalSlice(me) {
		idx := uint64(k*me.Ranks() + me.ID())
		sum ^= Mix64(idx*0x9E3779B97F4A7C15 + v)
	}
	checksum = core.TeamReduce(me.World(), sum, func(a, b uint64) uint64 { return a ^ b })

	// Replay: xor is an involution, so the table must return to its
	// initial state, conflict-free because the updates are atomic.
	ran = seedFor(me.ID())
	for i := 0; i < updatesPerRank; i++ {
		ran = nextRan(ran)
		core.AtomicXor(me, table.Ptr(int(ran&mask)), ran)
	}
	me.Barrier()
	var bad int64
	for k, v := range table.LocalSlice(me) {
		if v != uint64(k*me.Ranks()+me.ID()) {
			bad++
		}
	}
	errors = core.TeamReduce(me.World(), bad, func(a, b int64) int64 { return a + b })
	return checksum, errors
}

// Mix64 is the splitmix64 finalizer, used to hash checksum terms (and
// by internal/spmd to derive test patterns).
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// nextRan advances the HPCC LFSR.
func nextRan(ran uint64) uint64 {
	if int64(ran) < 0 {
		return (ran << 1) ^ POLY
	}
	return ran << 1
}

// seedFor gives rank r a distinct nonzero starting value.
func seedFor(r int) uint64 {
	s := uint64(r)*0x9E3779B97F4A7C15 + 1
	for i := 0; i < 8; i++ {
		s = nextRan(s) ^ (s >> 7) ^ 0xA5A5A5A5A5A5A5A5
	}
	if s == 0 {
		s = 1
	}
	return s
}

// Run executes the benchmark and returns its metrics.
func Run(p Params) Result {
	cfg := core.Config{
		Ranks:   p.Ranks,
		Machine: p.Machine,
		SW:      sim.SWUPCXX,
	}
	if p.Flavor == "upc" {
		cfg = upc.Config(p.Ranks, p.Machine)
	}
	tableSize := uint64(1) << p.LogTableSize
	// Size segments for the local share plus slack.
	perRank := int(tableSize)/p.Ranks + 1
	cfg.SegmentBytes = perRank*8 + (1 << 16)

	var errors int64
	st := core.Run(cfg, func(me *core.Rank) {
		// shared uint64_t Table[TableSize] — cyclic distribution as in
		// the paper's shared_array<uint64_t> Table(TableSize).
		table := core.NewSharedArray[uint64](me, int(tableSize), 1)

		// Initialize Table[i] = i over the local portion.
		local := table.LocalSlice(me)
		for k := range local {
			// Local element k of rank r is global index k*P + r (cyclic).
			local[k] = uint64(k*me.Ranks() + me.ID())
		}
		me.Barrier()

		mask := tableSize - 1
		ran := seedFor(me.ID())
		for i := 0; i < p.UpdatesPerRank; i++ {
			ran = nextRan(ran)
			idx := int(ran & mask)
			if p.Atomic {
				core.AtomicXor(me, table.Ptr(idx), ran)
				me.Lapse(me.Model().SharedAccessCost())
			} else {
				// The paper's Table[ran & (TableSize-1)] ^= ran: a
				// read-modify-write through the shared-array proxy
				// (one get + one put, each through index translation).
				v := table.Get(me, idx)
				table.Set(me, idx, v^ran)
			}
		}
		me.Barrier()

		// HPCC-style verification: replay the same updates (xor is an
		// involution) and count cells that fail to return to their
		// initial value. Racy non-atomic runs may show a small error
		// count; atomic runs must show zero.
		if p.Atomic {
			ran = seedFor(me.ID())
			for i := 0; i < p.UpdatesPerRank; i++ {
				ran = nextRan(ran)
				idx := int(ran & mask)
				core.AtomicXor(me, table.Ptr(idx), ran)
			}
			me.Barrier()
			bad := int64(0)
			for k, v := range table.LocalSlice(me) {
				if v != uint64(k*me.Ranks()+me.ID()) {
					bad++
				}
			}
			total := core.TeamReduce(me.World(), bad, func(a, b int64) int64 { return a + b })
			if me.ID() == 0 {
				errors = total
			}
			me.Barrier()
		}
	})

	updates := int64(p.UpdatesPerRank) * int64(p.Ranks)
	// The timed region is the update loop; in virtual mode the
	// initialization and verification phases are cheap relative to the
	// fine-grained update traffic, and the barrier structure isolates
	// them well enough for the paper's two significant digits.
	secs := st.Seconds(p.Virtual)
	r := Result{
		Ranks:   p.Ranks,
		Updates: updates,
		Seconds: secs,
		Errors:  errors,
	}
	if secs > 0 {
		if p.Atomic {
			// Two timed passes when verifying.
			secs /= 2
		}
		r.GUPS = float64(updates) / secs / 1e9
		r.UsecPerUpdate = secs * 1e6 / float64(p.UpdatesPerRank)
	}
	return r
}
