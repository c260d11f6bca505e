// Package dht implements a sharded distributed hash table over the
// runtime's message-aggregation layer — the canonical workload for
// software coalescing of fine-grained remote operations (the role
// GUPS plays for raw remote atomics in the paper's §V-A).
//
// Layout is owner-computes over the registered segments: every rank
// owns one open-addressing shard allocated in its own shared segment,
// and a key's owner is a pure function of the key, so any rank can
// route an operation without metadata traffic. Inserts travel as
// aggregated active messages (core.AggSend) and are applied by the
// owner against its local shard; lookups are an aggregated
// request/response pair, with replies themselves coalescing when many
// lookups hit one owner. On the in-process conduit the same code runs
// over the engine's active messages, which is how CI proves both
// backends compute the identical table.
//
// Replication (Config.Replicas = K > 1) keeps each key on K
// consecutive ranks — successor placement, ReplicaRanks — so the
// table survives rank death on a resilient job: writes fan out to
// every live replica through the same aggregation plane, reads route
// around dead replicas, and with Config.ReadRepair a lookup queries
// all live replicas and re-inserts the value into any that have lost
// it (a rank that missed writes while others already considered a
// peer dead). Checksum counts each key exactly once — at its first
// live replica — so it equals the unreplicated table's checksum and
// is invariant under both replication and repair.
//
// A shard never moves and only its owner touches it, so there is no
// locking anywhere: the handler executes on the owner's SPMD
// goroutine, the same discipline the conduit itself follows.
package dht

import (
	"encoding/binary"
	"fmt"

	"upcxx/internal/bench/gups"
	"upcxx/internal/core"
)

// Aggregated-AM handler ids used by the table. Ids are a global
// namespace (like a GASNet handler table), so at most one Table may
// exist per job at a time.
const (
	hInsert uint16 = 0x20 // payload [key u64][val u64]
	hLookup uint16 = 0x21 // payload [req u64][key u64]
	hAnswer uint16 = 0x22 // payload [req u64][val u64][found u8]
)

// Bucket is one slot of a shard: a (key, value) pair plus an
// occupancy word (keys are arbitrary 64-bit values, so no key can
// double as the empty sentinel). Bucket is POD, as segment storage
// requires.
type Bucket struct {
	Used uint64
	Key  uint64
	Val  uint64
}

// BucketBytes is the segment footprint of one bucket.
const BucketBytes = 24

// DefaultCapacity sizes a shard for the given per-rank insert volume:
// the next power of two at or above 4x keeps the expected load factor
// near 1/4, so linear probing stays short even on unlucky key splits.
func DefaultCapacity(insertsPerRank int) int {
	c := 64
	for c < 4*insertsPerRank {
		c <<= 1
	}
	return c
}

// SegBytes returns the per-rank segment space a Table of the given
// shard capacity needs, including allocator slack for the runtime's
// own metadata.
func SegBytes(capPerRank int) int {
	return capPerRank*BucketBytes + (1 << 17)
}

// Config tunes a Table beyond its shard capacity.
type Config struct {
	// Replicas is K, the number of ranks each key lives on (successor
	// placement; see ReplicaRanks). 0 or 1 means unreplicated; values
	// above the rank count are clamped. Size shards for K times the
	// unreplicated load.
	Replicas int
	// ReadRepair makes every lookup query all live replicas and
	// re-insert the winning value into replicas that answered "not
	// found" — convergence after partial writes. Without it a lookup
	// consults only the first live replica.
	ReadRepair bool
}

// Table is one job-wide distributed hash table. Construction is
// collective; thereafter each rank calls Insert/Lookup with its own
// handle, and methods must run on the rank's SPMD goroutine.
type Table struct {
	capacity int
	mask     uint64
	local    []Bucket // this rank's shard, in its own segment
	cfg      Config
	k        int // effective replica count (cfg.Replicas clamped)

	pending map[uint64]*query
	nextReq uint64

	inserts   int64 // Insert calls issued by this rank
	lookups   int64 // Lookup calls issued by this rank
	localOps  int64 // of those, owner-local fast paths
	served    int64 // remote ops this rank's shard applied
	repairs   int64 // read-repair re-inserts this rank issued
	occupancy int64 // live buckets in the local shard
}

// query is one outstanding per-replica probe of a Lookup, tracked by
// request id so an answer — or the target's death — settles exactly
// this probe.
type query struct {
	l      *Lookup
	target int
}

// New collectively creates an unreplicated table whose per-rank shard
// holds capPerRank buckets (rounded up to a power of two). Every rank
// must call it before any rank inserts. Only one Table may be live per
// job: its AM handler ids are global, and registering them twice
// panics.
func New(me *core.Rank, capPerRank int) *Table {
	return NewWithConfig(me, capPerRank, Config{})
}

// NewWithConfig is New with replication and read-repair settings.
func NewWithConfig(me *core.Rank, capPerRank int, cfg Config) *Table {
	capacity := 1
	for capacity < capPerRank {
		capacity <<= 1
	}
	k := cfg.Replicas
	if k < 1 {
		k = 1
	}
	if k > me.Ranks() {
		k = me.Ranks()
	}
	t := &Table{
		capacity: capacity,
		mask:     uint64(capacity - 1),
		cfg:      cfg,
		k:        k,
		pending:  make(map[uint64]*query),
	}
	shard := core.Allocate[Bucket](me, me.ID(), capacity)
	t.local = core.LocalSlice(me, shard, capacity)
	for i := range t.local {
		t.local[i] = Bucket{}
	}
	core.RegisterAMHandler(me, hInsert, t.onInsert)
	core.RegisterAMHandler(me, hLookup, t.onLookup)
	core.RegisterAMHandler(me, hAnswer, t.onAnswer)
	if t.survivable() {
		core.OnRankDeath(me, func(rank int) { t.onRankDeath(me, rank) })
	}
	me.Barrier()
	return t
}

// survivable reports whether the table routes around dead ranks (and
// must therefore tolerate the protocol leftovers death produces, e.g.
// answers for requests a death sweep already settled).
func (t *Table) survivable() bool { return t.k > 1 || t.cfg.ReadRepair }

// ReplicaRanks returns the ranks holding key under successor
// placement: the primary owner followed by the k-1 next ranks mod the
// job size (clamped to at most ranks, so the copies are always on
// distinct ranks). A pure function of its arguments — identical on
// every rank and backend, so any rank routes without metadata traffic.
func ReplicaRanks(key uint64, ranks, k int) []int {
	if k < 1 {
		k = 1
	}
	if k > ranks {
		k = ranks
	}
	owner := int(gups.Mix64(key) % uint64(ranks))
	out := make([]int, k)
	for i := range out {
		out[i] = (owner + i) % ranks
	}
	return out
}

// liveReplicas returns key's replica ranks that are still alive, in
// placement order. Fault-free this is exactly ReplicaRanks.
func (t *Table) liveReplicas(me *core.Rank, key uint64) []int {
	all := ReplicaRanks(key, me.Ranks(), t.k)
	live := all[:0]
	for _, r := range all {
		if me.RankAlive(r) {
			live = append(live, r)
		}
	}
	return live
}

// slot returns the probe start for key within a shard.
func (t *Table) slot(key uint64) uint64 {
	return gups.Mix64(key^0xD6E8FEB86659FD93) & t.mask
}

// Insert stores (key, val), overwriting any previous value for key —
// on every live replica, fanned out through the aggregation plane.
// Owner-local copies apply immediately; remote ones travel as
// aggregated AMs and are visible at their replicas once the completion
// object passed as done fires (nil: by the caller's next barrier; an
// *Event or *Promise both work). Like all aggregated ops, inserts to
// one replica apply in issue order, so the last insert of a key wins
// deterministically at each replica.
// Panics typed (core.ErrRankDead) if no replica is left alive.
func (t *Table) Insert(me *core.Rank, key, val uint64, done core.Completer) {
	t.inserts++
	live := t.liveReplicas(me, key)
	if len(live) == 0 {
		panic(fmt.Errorf("dht: insert of key %#x: every replica dead: %w", key, core.ErrRankDead))
	}
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:], key)
	binary.LittleEndian.PutUint64(p[8:], val)
	for _, r := range live {
		if r == me.ID() {
			t.localOps++
			t.put(key, val)
			core.CompleteNow(done, me)
			continue
		}
		core.AggSend(me, r, hInsert, p[:], done)
	}
}

func (t *Table) onInsert(me *core.Rank, _ int, payload []byte) {
	t.served++
	t.put(binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:]))
}

// put applies one insert to the local shard: linear probing from the
// key's slot, overwrite on key match.
func (t *Table) put(key, val uint64) {
	s := t.slot(key)
	for i := 0; i < t.capacity; i++ {
		b := &t.local[(s+uint64(i))&t.mask]
		if b.Used == 0 {
			*b = Bucket{Used: 1, Key: key, Val: val}
			t.occupancy++
			return
		}
		if b.Key == key {
			b.Val = val
			return
		}
	}
	panic(fmt.Sprintf("dht: shard full (%d buckets)", t.capacity))
}

// get probes the local shard.
func (t *Table) get(key uint64) (uint64, bool) {
	s := t.slot(key)
	for i := 0; i < t.capacity; i++ {
		b := &t.local[(s+uint64(i))&t.mask]
		if b.Used == 0 {
			return 0, false
		}
		if b.Key == key {
			return b.Val, true
		}
	}
	return 0, false
}

// Lookup is one in-flight lookup's handle.
type Lookup struct {
	key       uint64
	remaining int   // per-replica probes still outstanding
	answered  int   // probes that actually answered (vs died)
	stale     []int // replicas that answered "not found" (repair targets)
	failed    error // every replica dead — Wait panics with this
	done      bool
	found     bool
	val       uint64
	cb        func(*Lookup) // OnDone continuation, nil until registered
}

// Lookup starts a (possibly remote) probe for key and returns its
// handle; issue a batch of lookups and then Wait each to let requests
// — and the owners' replies — coalesce. Unreplicated (or without
// ReadRepair), the probe goes to the first live replica; with
// ReadRepair every live replica is consulted and lagging ones are
// repaired from the winning value when the last answer arrives.
func (t *Table) Lookup(me *core.Rank, key uint64) *Lookup {
	t.lookups++
	l := &Lookup{key: key}
	live := t.liveReplicas(me, key)
	if len(live) == 0 {
		l.failed = fmt.Errorf("dht: lookup of key %#x: every replica dead: %w", key, core.ErrRankDead)
		l.done = true
		return l
	}
	targets := live
	if !t.cfg.ReadRepair {
		targets = live[:1]
	}
	l.remaining = len(targets)
	for _, r := range targets {
		t.probe(me, l, r)
	}
	return l
}

// probe issues one per-replica query: a local shard read when the
// target is this rank, an aggregated request/answer pair otherwise.
func (t *Table) probe(me *core.Rank, l *Lookup, target int) {
	if target == me.ID() {
		t.localOps++
		v, ok := t.get(l.key)
		t.absorb(me, l, target, v, ok)
		return
	}
	t.nextReq++
	req := t.nextReq
	t.pending[req] = &query{l: l, target: target}
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:], req)
	binary.LittleEndian.PutUint64(p[8:], l.key)
	core.AggSend(me, target, hLookup, p[:], nil)
}

// absorb folds one replica's answer into the lookup, finishing it when
// the last probe settles.
func (t *Table) absorb(me *core.Rank, l *Lookup, target int, val uint64, found bool) {
	l.remaining--
	l.answered++
	if found {
		if !l.found {
			l.found = true
			l.val = val
		}
	} else {
		l.stale = append(l.stale, target)
	}
	if l.remaining == 0 {
		t.finishLookup(me, l)
	}
}

// finishLookup settles the handle and, in repair mode, re-inserts the
// winning value into live replicas that had lost it.
func (t *Table) finishLookup(me *core.Rank, l *Lookup) {
	if l.answered == 0 {
		// Every queried replica died before answering (and none is left:
		// re-routing happens at death time): the key is unreachable.
		l.failed = fmt.Errorf("dht: lookup of key %#x: every replica dead: %w", l.key, core.ErrRankDead)
		l.done = true
		l.fire()
		return
	}
	l.done = true
	defer l.fire()
	if !l.found || !t.cfg.ReadRepair || len(l.stale) == 0 {
		return
	}
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:], l.key)
	binary.LittleEndian.PutUint64(p[8:], l.val)
	for _, r := range l.stale {
		if !me.RankAlive(r) {
			continue
		}
		t.repairs++
		if r == me.ID() {
			t.put(l.key, l.val)
			continue
		}
		core.AggSend(me, r, hInsert, p[:], nil)
	}
}

// onRankDeath settles every probe outstanding against the dead rank:
// repair-mode lookups simply lose one voter; single-target lookups
// re-route to the next live replica.
func (t *Table) onRankDeath(me *core.Rank, rank int) {
	var doomed []uint64
	for req, q := range t.pending {
		if q.target == rank {
			doomed = append(doomed, req)
		}
	}
	for _, req := range doomed {
		q := t.pending[req]
		delete(t.pending, req)
		l := q.l
		if !t.cfg.ReadRepair {
			if live := t.liveReplicas(me, l.key); len(live) > 0 {
				t.probe(me, l, live[0])
				continue
			}
		}
		l.remaining--
		if l.remaining == 0 {
			t.finishLookup(me, l)
		}
	}
}

func (t *Table) onLookup(me *core.Rank, from int, payload []byte) {
	t.served++
	req := binary.LittleEndian.Uint64(payload)
	val, found := t.get(binary.LittleEndian.Uint64(payload[8:]))
	var rep [17]byte
	binary.LittleEndian.PutUint64(rep[0:], req)
	binary.LittleEndian.PutUint64(rep[8:], val)
	if found {
		rep[16] = 1
	}
	// The reply is itself aggregated; the runtime flushes
	// handler-generated ops as soon as the incoming batch is applied.
	core.AggSend(me, from, hAnswer, rep[:], nil)
}

func (t *Table) onAnswer(me *core.Rank, from int, payload []byte) {
	req := binary.LittleEndian.Uint64(payload)
	q := t.pending[req]
	if q == nil {
		// On a survivable table an answer can legitimately outlive its
		// request: the death sweep settled the probe, then the "dead"
		// rank's in-flight reply landed anyway (chaos simulation, or a
		// frame that beat the detector). Drop it.
		if t.survivable() {
			return
		}
		panic(fmt.Sprintf("dht: rank %d: answer for unknown request %d", me.ID(), req))
	}
	delete(t.pending, req)
	t.absorb(me, q.l, from, binary.LittleEndian.Uint64(payload[8:]), payload[16] == 1)
}

// Key returns the key this lookup probes — handy when Waiting a batch.
func (l *Lookup) Key() uint64 { return l.key }

// fire runs the OnDone continuation, if one is registered.
func (l *Lookup) fire() {
	if l.cb != nil {
		cb := l.cb
		l.cb = nil
		cb(l)
	}
}

// OnDone registers fn to run on the owning rank's goroutine when the
// lookup settles — immediately, if it already has (the local fast path
// and the every-replica-dead path settle inside Lookup itself). Like
// every Table operation, OnDone must be called from the rank's own
// goroutine; the continuation runs there too, from progress dispatch.
// It is the event-loop alternative to Wait for callers multiplexing
// many lookups (the gateway's serve loop).
func (l *Lookup) OnDone(fn func(*Lookup)) {
	if l.done {
		fn(l)
		return
	}
	l.cb = fn
}

// Result returns the settled lookup's outcome without panicking: the
// value, whether the key was present, and the typed failure (nil
// unless every replica of the key died). Valid only once the lookup
// has settled: inside its OnDone continuation, or after Wait.
func (l *Lookup) Result() (val uint64, found bool, err error) {
	return l.val, l.found, l.failed
}

// Wait blocks until the lookup's answer arrives (servicing progress,
// which also flushes the request if it is still buffered) and returns
// the value and whether the key was present. If every replica of the
// key died, Wait panics with a core.ErrRankDead-typed cause rather
// than report a false miss.
func (l *Lookup) Wait(me *core.Rank) (uint64, bool) {
	if !l.done {
		me.WaitUntil(func() bool { return l.done })
	}
	if l.failed != nil {
		panic(l.failed)
	}
	return l.val, l.found
}

// Checksum barriers (draining all in-flight inserts) and folds the
// whole table into one value, identical on every rank. The fold is
// insertion-order- and probe-placement-independent — each occupied
// bucket contributes a mix of its (key, value) pair under xor — and
// counts every key exactly once, at its first LIVE replica, so the
// checksum is invariant under replication, rank death and read-repair:
// it always equals ExpectedChecksum of the logical contents, which is
// what lets CI compare conduit backends and chaos runs against
// fault-free ones. A rank whose scripted death has passed (the
// in-process chaos ghost) contributes nothing.
func (t *Table) Checksum(me *core.Rank) uint64 {
	me.Barrier()
	var sum uint64
	var entries int64
	ghost := core.ChaosKilled(me)
	for i := range t.local {
		b := &t.local[i]
		if b.Used == 0 {
			continue
		}
		if ghost || !t.countsHere(me, b.Key) {
			continue
		}
		sum ^= gups.Mix64(b.Key*0x9E3779B97F4A7C15 + gups.Mix64(b.Val))
		entries++
	}
	total := core.TeamReduce(me.World(), entries, func(a, b int64) int64 { return a + b })
	sum = core.TeamReduce(me.World(), sum, func(a, b uint64) uint64 { return a ^ b })
	return gups.Mix64(sum ^ uint64(total))
}

// countsHere reports whether this rank is key's first live replica —
// the one copy of the key Checksum counts.
func (t *Table) countsHere(me *core.Rank, key uint64) bool {
	for _, r := range ReplicaRanks(key, me.Ranks(), t.k) {
		if me.RankAlive(r) {
			return r == me.ID()
		}
	}
	return false
}

// ExpectedChecksum computes, with no job at all, the checksum a Table
// holding exactly the given key -> value pairs reports — the reference
// oracle benchmarks and tests verify real runs against. It must stay
// in lockstep with Checksum's fold.
func ExpectedChecksum(pairs map[uint64]uint64) uint64 {
	var sum uint64
	for k, v := range pairs {
		sum ^= gups.Mix64(k*0x9E3779B97F4A7C15 + gups.Mix64(v))
	}
	return gups.Mix64(sum ^ uint64(len(pairs)))
}

// Entries returns the number of live buckets in this rank's shard.
func (t *Table) Entries() int64 { return t.occupancy }

// Counters reports this rank's table activity for the bench harness.
func (t *Table) Counters() map[string]float64 {
	return map[string]float64{
		"dht_inserts":   float64(t.inserts),
		"dht_lookups":   float64(t.lookups),
		"dht_local_ops": float64(t.localOps),
		"dht_served":    float64(t.served),
		"dht_repairs":   float64(t.repairs),
		"dht_entries":   float64(t.occupancy),
	}
}
