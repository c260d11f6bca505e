// Package spmd is the registry of named SPMD programs the upcxx-run
// launcher can execute, on either conduit backend: in-process (one
// goroutine per rank, the virtual-time engine) or wire (one OS process
// per rank over the TCP conduit). Every program sticks to the
// serializable operation vocabulary — one-sided reads/writes, AtomicXor,
// remote allocation, barriers, collectives, locks — so the same body
// runs unmodified on both backends, and every program returns a
// deterministic checksum for a given (ranks, scale) pair, which is how
// CI proves the two backends compute identical answers.
package spmd

import (
	"fmt"
	"strings"

	"upcxx/internal/bench/gups"
	"upcxx/internal/core"
	"upcxx/internal/dht"
)

// Prog is one registered SPMD program.
type Prog struct {
	Name string
	Desc string
	// DefaultScale is the size knob used when the launcher passes 0.
	DefaultScale int
	// SegBytes sizes each rank's shared segment for the given run.
	SegBytes func(ranks, scale int) int
	// Run executes the program body on one rank and returns this run's
	// checksum (identical on every rank). It must use only wire-capable
	// operations and must panic on verification failure.
	Run func(me *core.Rank, scale int) uint64
	// Resilient asks the launcher for a fault-tolerant job (heartbeats,
	// typed rank-death failures) even without an injected fault plan:
	// the program is written to survive rank death.
	Resilient bool
	// Gateway marks a program that is only the compute half of a
	// launcher-assembled gateway job (upcxx-run -gateway): its ranks
	// park until a gateway rank's drain broadcast, so running it
	// standalone would hang forever. Standalone sweeps and plain
	// launches must skip or reject it.
	Gateway bool
}

// Register adds a program to the registry. Packages outside spmd (the
// service plane, benchmarks) register their programs through this from
// an init function, keeping the dependency arrow pointing at spmd.
func Register(p Prog) {
	for _, q := range registry {
		if q.Name == p.Name {
			panic("spmd: duplicate program " + p.Name)
		}
	}
	registry = append(registry, p)
}

var registry = []Prog{
	{
		Name:         "gups",
		Desc:         "HPCC Random Access: atomic-xor updates to a cyclic shared table, with involution verification (paper §V-A)",
		DefaultScale: 14, // log2 of the table size
		SegBytes: func(ranks, scale int) int {
			return (1<<scale)/ranks*8 + (1 << 17)
		},
		Run: func(me *core.Rank, scale int) uint64 {
			updates := (1 << scale) / 4 / me.Ranks()
			if updates < 64 {
				updates = 64
			}
			sum, errs := gups.SPMD(me, scale, updates)
			if errs != 0 {
				panic(fmt.Sprintf("spmd: gups verification failed: %d mismatches", errs))
			}
			return sum
		},
	},
	{
		Name:         "ring",
		Desc:         "neighbor-ring walkthrough: remote allocation, one-sided slices, async copy with events, a global lock, shared vars, collectives",
		DefaultScale: 256, // elements per neighbor block
		SegBytes: func(ranks, scale int) int {
			return scale*8*4 + (1 << 17)
		},
		Run: ring,
	},
	{
		Name:         "dht",
		Desc:         "sharded distributed hash table over aggregated active messages: batched inserts, request/response lookups, owner-computes checksum",
		DefaultScale: 4096, // inserts per rank
		SegBytes: func(ranks, scale int) int {
			return dht.SegBytes(dht.DefaultCapacity(scale))
		},
		Run: runDHT,
	},
	{
		Name:         "dhtchaos",
		Desc:         "replicated DHT under rank death: K=2 successor replication, read-repair lookups, survivors verify the full key set and report the fault-free checksum",
		DefaultScale: 512, // inserts per rank
		SegBytes: func(ranks, scale int) int {
			return dht.SegBytes(dht.DefaultCapacity(2 * scale))
		},
		Run:       runDHTChaos,
		Resilient: true,
	},
	{
		Name:         "pipeline",
		Desc:         "futures-first overlap: per-rank batches of multi-hop ReadAsync→Then→AggPut chains under one Finish, verified against a pure fold",
		DefaultScale: 256, // chains per rank
		SegBytes: func(ranks, scale int) int {
			return ranks*scale*8 + scale*8 + (1 << 17)
		},
		Run: pipeline,
	},
	{
		Name:         "taskgraph",
		Desc:         "event-driven task DAG over registered-function RPC: async/async_after with events, futures, distributed finish over RPC-spawned chains (paper §III-G Listing 1)",
		DefaultScale: 12, // spawn-chain depth
		SegBytes: func(ranks, scale int) int {
			return 1 << 17
		},
		Run: taskgraph,
	},
}

// runDHT is the dht program body: every rank inserts `scale` keys with
// values derived from the keys, verifies a lookup sample (hits and a
// guaranteed miss — inserted keys are all odd), and folds the table
// into the backend-independent checksum.
func runDHT(me *core.Rank, scale int) uint64 {
	tbl := dht.New(me, dht.DefaultCapacity(scale))
	key := func(rank, i int) uint64 {
		return mix(uint64(rank)<<32+uint64(i))<<1 | 1
	}
	val := func(k uint64) uint64 { return mix(k ^ 0x5851F42D4C957F2D) }
	for i := 0; i < scale; i++ {
		k := key(me.ID(), i)
		tbl.Insert(me, k, val(k), nil)
	}
	me.Barrier()

	sample := scale
	if sample > 256 {
		sample = 256
	}
	step := scale / sample
	pend := make([]*dht.Lookup, sample)
	for s := 0; s < sample; s++ {
		pend[s] = tbl.Lookup(me, key(me.ID(), s*step))
	}
	miss := tbl.Lookup(me, uint64(2+4*me.ID())) // even keys are never inserted
	for s, l := range pend {
		k := key(me.ID(), s*step)
		if v, ok := l.Wait(me); !ok || v != val(k) {
			panic(fmt.Sprintf("spmd: dht lookup of %#x = (%#x,%v), want (%#x,true)", k, v, ok, val(k)))
		}
	}
	if _, ok := miss.Wait(me); ok {
		panic("spmd: dht lookup found a never-inserted key")
	}
	return tbl.Checksum(me)
}

// Progs returns the registered programs.
func Progs() []Prog {
	out := make([]Prog, len(registry))
	copy(out, registry)
	return out
}

// Lookup resolves a program by name (case-insensitive).
func Lookup(name string) (Prog, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, p := range registry {
		if p.Name == name {
			return p, true
		}
	}
	return Prog{}, false
}

// mix derives test patterns and folds checksums (gups owns the shared
// splitmix64 finalizer; a divergent copy here would change checksums on
// only one backend path).
func mix(z uint64) uint64 { return gups.Mix64(z) }

// ring is the example program: each rank allocates a block on its right
// neighbor (remote allocation), fills it one-sided, and publishes the
// pointer through a shared directory; everyone then reads the block that
// landed in its own segment, async-copies its right neighbor's block
// home under an event, bumps a shared counter under a global lock, and
// folds everything into one checksum with collectives.
func ring(me *core.Rank, scale int) uint64 {
	n := me.Ranks()
	right := (me.ID() + 1) % n

	// Remote allocation + one-sided write: a block in the right
	// neighbor's segment, holding values derived from our rank.
	blk := core.Allocate[uint64](me, right, scale)
	vals := make([]uint64, scale)
	for i := range vals {
		vals[i] = mix(uint64(me.ID())<<32 + uint64(i))
	}
	core.WriteSlice(me, blk, vals)

	// Publish pointers through a shared directory: dir[i] is the block
	// living in rank i's segment (global pointers are POD, so they ship
	// over the wire like any other shared value).
	dir := core.NewSharedArray[core.GlobalPtr[uint64]](me, n, 1)
	dir.Set(me, right, blk)
	me.Barrier()

	// The block in our own segment was written by our left neighbor.
	var sum uint64
	for i, v := range core.LocalSlice(me, dir.Get(me, me.ID()), scale) {
		sum ^= mix(v + uint64(i))
	}

	// Async-copy the right neighbor's block into our segment, completion
	// observed through an event.
	dst := core.Allocate[uint64](me, me.ID(), scale)
	ev := core.NewEvent()
	core.AsyncCopy(me, dir.Get(me, right), dst, scale, ev)
	ev.Wait(me)
	for i, v := range core.LocalSlice(me, dst, scale) {
		sum ^= mix(v ^ uint64(i)<<16)
	}

	// Global lock + shared counter: every rank adds its (id+1) under
	// mutual exclusion; the total is n(n+1)/2.
	var lk core.Lock
	if me.ID() == 0 {
		lk = core.NewLock(me)
	}
	lk = core.TeamBroadcast(me.World(), lk, 0)
	ctr := core.NewSharedVar[uint64](me)
	me.Barrier()
	lk.Acquire(me)
	ctr.Set(me, ctr.Get(me)+uint64(me.ID()+1))
	lk.Release(me)
	me.Barrier()
	total := ctr.Get(me)
	if want := uint64(n) * uint64(n+1) / 2; total != want {
		panic(fmt.Sprintf("spmd: ring lock counter = %d, want %d", total, want))
	}

	// Fold per-rank sums with collectives: an exclusive scan seasons
	// each contribution, a slice reduction and a final allreduce agree
	// on one checksum everywhere.
	scan := core.TeamExclusiveScan(me.World(), uint64(me.ID()+1),
		func(a, b uint64) uint64 { return a + b }, 0)
	folded := core.TeamReduceSlices(me.World(), []uint64{sum, mix(scan ^ total)},
		func(a, b uint64) uint64 { return a ^ b }, 0)
	var rootFold uint64
	if me.ID() == 0 {
		rootFold = mix(folded[0] ^ folded[1])
	}
	rootFold = core.TeamBroadcast(me.World(), rootFold, 0)
	sum = core.TeamReduce(me.World(), sum^rootFold, func(a, b uint64) uint64 { return a ^ b })

	// Remote free closes the loop on dynamic global memory management.
	if err := core.Deallocate(me, blk); err != nil {
		panic(err)
	}
	me.Barrier()
	return sum
}
