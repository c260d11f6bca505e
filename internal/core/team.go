package core

import (
	"fmt"
	"sort"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// Teams: first-class rank subsets with team-scoped collectives, the
// upcxx::team redesign of the flat collective API. Every rank owns two
// built-in teams — World() (all ranks) and Local() (the ranks
// co-located on this host, per the job topology) — and can carve
// further subsets with Split(color, key), MPI_Comm_split style. All
// collectives are team-scoped methods/functions; a world-wide one is the
// team form over World().
//
// A Team value is per-rank (it is a view of the subset through this
// rank's handle, like every other core object), but its identity — the
// id and the member list — is a pure function of the split history, so
// co-members agree on both without communication beyond the split's
// own allgather. Collective calls on a team must be made by all its
// members in the same order, the usual SPMD contract; the per-team
// sequence number turns that order into globally unique rendezvous
// keys for the conduit's team collectives, which the world rides like
// any other team (but for an in-process job's world; see slot).
type Team struct {
	r       *Rank
	id      uint64
	members []int // world ranks in team-rank order
	myIdx   int   // this rank's position in members
	seq     uint64
	splits  uint64
	// slot marks the world team of an in-process job (set by newJob):
	// its collectives take the engine's shared slot (coll.go), not the
	// conduit's keyed rendezvous.
	slot bool
}

const (
	worldTeamID   = 1
	localTeamSalt = 0x6c6f63616c7465 // "localte"
	colorSalt     = 0x636f6c6f72     // "color"
	golden        = 0x9E3779B97F4A7C15
)

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler good
// enough to make team ids and collective keys collision-free across
// independent split histories.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// jobNodes resolves the host topology of a job: the explicit
// Config.Nodes when given, else the conduit's own locality knowledge,
// else the builder's default — ranks that all share this address space
// (shared) genuinely share one host; others are assumed one per host.
func jobNodes(cfg Config, cd gasnet.Conduit, shared bool) []int {
	if cfg.Nodes != nil {
		if len(cfg.Nodes) != cfg.Ranks {
			panic(fmt.Sprintf("upcxx: Config.Nodes has %d entries for %d ranks",
				len(cfg.Nodes), cfg.Ranks))
		}
		return append([]int(nil), cfg.Nodes...)
	}
	if lc := cd.Capabilities().Locality; lc != nil {
		return append([]int(nil), lc.Nodes()...)
	}
	nodes := make([]int, cfg.Ranks)
	if !shared {
		for i := range nodes {
			nodes[i] = i
		}
	}
	return nodes
}

// World returns the team of all ranks (team rank == world rank), built
// with the rank by newJob.
func (r *Rank) World() *Team { return r.world }

// Local returns the team of ranks co-located with this one (same host
// index in the job topology; see Config.Nodes). Membership is identical
// across backends at matching topology, so programs folding per-host
// partials over Local() produce backend-independent answers.
func (r *Rank) Local() *Team {
	r.enter()
	defer r.exit()
	if r.localTeam == nil {
		node := r.nodes[r.id]
		var members []int
		myIdx := -1
		for m, h := range r.nodes {
			if h == node {
				if m == r.id {
					myIdx = len(members)
				}
				members = append(members, m)
			}
		}
		r.localTeam = &Team{r: r, id: mix64(localTeamSalt + uint64(node)),
			members: members, myIdx: myIdx}
	}
	return r.localTeam
}

// SplitTeam splits the world team; shorthand for me.World().Split.
func (r *Rank) SplitTeam(color, key int) *Team { return r.World().Split(color, key) }

// Rank returns this rank's index within the team.
func (t *Team) Rank() int { return t.myIdx }

// Ranks returns the team size.
func (t *Team) Ranks() int { return len(t.members) }

// Members returns the world ranks of the team in team-rank order. The
// slice is shared; do not mutate it.
func (t *Team) Members() []int { return t.members }

// WorldRank translates a team rank to a world rank.
func (t *Team) WorldRank(i int) int { return t.members[i] }

// ID returns the team's identity, equal on all members and unique
// across distinct teams of the job.
func (t *Team) ID() uint64 { return t.id }

func (t *Team) String() string {
	return fmt.Sprintf("team %#x (rank %d/%d)", t.id, t.myIdx, len(t.members))
}

// nextKey derives the rendezvous key of the team's next collective:
// every member computes the same sequence independently, and distinct
// teams (or distinct collectives of one team) never collide.
func (t *Team) nextKey() uint64 {
	t.seq++
	return mix64(t.id + t.seq*golden)
}

// Split partitions the team: members calling with the same color form a
// new team, ordered by (key, world rank) — MPI_Comm_split semantics.
// Collective over the parent team; every member receives its own new
// team. Negative colors are not supported (there is no "undefined"
// non-participation; pass a distinct color instead).
func (t *Team) Split(color, key int) *Team {
	if color < 0 {
		panic("upcxx: Split with negative color")
	}
	me := t.r
	t.splits++
	id := mix64(mix64(t.id+t.splits*golden) ^ mix64(uint64(color)+colorSalt))

	type ck struct{ Color, Key int32 }
	all := TeamAllGather(t, ck{int32(color), int32(key)})

	type mem struct{ key, world int }
	var picked []mem
	for i, c := range all {
		if int(c.Color) == color {
			picked = append(picked, mem{key: int(c.Key), world: t.members[i]})
		}
	}
	sort.Slice(picked, func(a, b int) bool {
		if picked[a].key != picked[b].key {
			return picked[a].key < picked[b].key
		}
		return picked[a].world < picked[b].world
	})
	members := make([]int, len(picked))
	myIdx := -1
	for i, m := range picked {
		members[i] = m.world
		if m.world == me.id {
			myIdx = i
		}
	}
	return &Team{r: me, id: id, members: members, myIdx: myIdx}
}

// allGatherBytes runs one keyed team allgather through the conduit,
// aborting on failure; the parts are indexed by team rank and the caller
// charges model costs. Buffered aggregated ops ship first: the
// rendezvous blocks until every member arrives, and a member may be
// waiting on our ops to get there.
func (t *Team) allGatherBytes(contrib []byte) [][]byte {
	me := t.r
	me.aggPreBlock()
	parts, err := me.cd.TeamAllGather(t.nextKey(), t.members, contrib)
	me.mustCd(err)
	return parts
}

// Barrier blocks until every member of the team arrives, servicing
// progress while waiting. It rides the conduit's keyed team barrier (on
// the hierarchical conduit: an intra-host shared-memory phase plus a
// dissemination exchange among per-host leaders); the world of an
// in-process job takes the engine barrier. Aggregated ops are drained
// first, preserving the "visible by the next barrier" rule.
func (t *Team) Barrier() {
	me := t.r
	me.enter()
	defer me.exit()
	var t0 uint64
	if me.ring != nil {
		t0 = obs.NowNs()
		me.ring.Begin(obs.KBarrier, -1, uint32(len(t.members)))
	}
	defer func() {
		if me.ring != nil {
			me.ring.End(obs.KBarrier)
			me.barrierNs.Observe(int64(obs.NowNs() - t0))
		}
	}()
	t.barrier()
}

// barrier is Barrier without the span and the Concurrent-mode lock; the
// runtime's own quiescence barriers call it directly.
func (t *Team) barrier() {
	me := t.r
	me.aggDrain()
	if t.slot {
		me.ep.Barrier()
		return
	}
	me.mustCd(me.cd.TeamBarrier(t.nextKey(), t.members))
	me.ep.Clock.Advance(me.job.model.TeamBarrierCost(len(t.members)))
}

// gatherPOD allgathers one POD value per member, indexed by team rank,
// and charges the gather. A part holds the value's bytes, or nothing
// for a member declared dead during the collective (a resilient job).
func gatherPOD[T any](t *Team, v T) [][]byte {
	checkPOD[T]()
	size := sizeOf[T]()
	parts := t.allGatherBytes(valueBytes(&v))
	for i, p := range parts {
		if len(p) != 0 && uint64(len(p)) != size {
			panic(fmt.Sprintf("upcxx: team collective: member %d contributed %d bytes, want %d",
				i, len(p), size))
		}
	}
	t.r.ep.Clock.Advance(t.r.job.model.AllGatherCost(len(t.members), int(size)))
	return parts
}

// TeamAllGather collects one POD value per member, indexed by team
// rank. On a resilient job a member declared dead during the collective
// leaves the zero T; callers that care consult RankAlive. (Go methods
// cannot carry type parameters, so the typed team collectives are free
// functions over *Team.)
func TeamAllGather[T any](t *Team, v T) []T {
	if t.slot {
		return worldAllGather(t.r, v)
	}
	parts := gatherPOD(t, v)
	out := make([]T, len(parts))
	for i, p := range parts {
		copy(valueBytes(&out[i]), p)
	}
	return out
}

// TeamBroadcast distributes the value held by the member with team rank
// root to every member. A root declared dead has nothing to broadcast:
// every survivor panics with a cause satisfying errors.Is(err,
// ErrRankDead).
func TeamBroadcast[T any](t *Team, v T, root int) T {
	if t.slot {
		return worldBroadcast(t.r, v, root)
	}
	checkPOD[T]()
	var contrib []byte
	if t.myIdx == root {
		contrib = valueBytes(&v)
	}
	var out T
	switch p := t.allGatherBytes(contrib)[root]; uint64(len(p)) {
	case sizeOf[T]():
		copy(valueBytes(&out), p)
	case 0:
		// Only death erases the root's contribution (it deposits before
		// gathering when alive).
		panic(fmt.Errorf("upcxx: team broadcast: %w", t.r.deadErrFor(t.members[root])))
	default:
		panic(fmt.Sprintf("upcxx: team broadcast: root contributed %d bytes, want %d",
			len(p), sizeOf[T]()))
	}
	t.r.ep.Clock.Advance(t.r.job.model.BroadcastCost(len(t.members), int(sizeOf[T]())))
	return out
}

// TeamReduce combines one value per member with op (associative) and
// returns the result on every member. The fold runs in team-rank
// order, so floating-point results are deterministic and agree across
// backends. Members declared dead during the collective are skipped:
// survivors fold the same surviving set in the same order, so they
// still agree with each other.
func TeamReduce[T any](t *Team, v T, op func(a, b T) T) T {
	if t.slot {
		return worldReduce(t.r, v, op)
	}
	var acc T
	first := true
	for _, p := range gatherPOD(t, v) {
		if len(p) == 0 {
			continue
		}
		var x T
		copy(valueBytes(&x), p)
		if first {
			acc, first = x, false
			continue
		}
		acc = op(acc, x)
	}
	// The down-sweep, on top of the gather's charge.
	t.r.ep.Clock.Advance(t.r.job.model.BroadcastCost(len(t.members), int(sizeOf[T]())))
	return acc
}

// TeamReduceSlices element-wise combines equal-length slices from every
// member into root's (a team rank) result; other members receive nil.
// Members declared dead during the collective are skipped, as in
// TeamReduce.
func TeamReduceSlices[T any](t *Team, contrib []T, op func(a, b T) T, root int) []T {
	if t.slot {
		return worldReduceSlices(t.r, contrib, op, root)
	}
	checkPOD[T]()
	parts := t.allGatherBytes(sliceBytes(contrib))
	bytes := len(contrib) * int(sizeOf[T]())
	t.r.ep.Clock.Advance(t.r.job.model.ReduceSlicesCost(len(t.members), bytes))
	t.r.Work(float64(len(contrib)))
	if t.myIdx != root {
		return nil
	}
	out := make([]T, len(contrib))
	d := make([]T, len(contrib))
	first := true
	for i, p := range parts {
		switch len(p) {
		case bytes:
		case 0:
			continue // a dead member
		default:
			panic(fmt.Sprintf("upcxx: team ReduceSlices: member %d contributed %d bytes, want %d",
				i, len(p), bytes))
		}
		if first {
			copy(sliceBytes(out), p)
			first = false
			continue
		}
		copy(sliceBytes(d), p)
		for j, x := range d {
			out[j] = op(out[j], x)
		}
	}
	return out
}

// TeamExclusiveScan returns the exclusive prefix fold of v across the
// team in team-rank order (team rank 0 receives identity).
func TeamExclusiveScan[T any](t *Team, v T, op func(a, b T) T, identity T) T {
	all := TeamAllGather(t, v)
	acc := identity
	for i := 0; i < t.myIdx; i++ {
		acc = op(acc, all[i])
	}
	t.r.Work(float64(t.myIdx))
	return acc
}

// TeamGatherAll collects one value per member on the member with team
// rank root (indexed by team rank); other members receive nil.
func TeamGatherAll[T any](t *Team, v T, root int) []T {
	all := TeamAllGather(t, v)
	if t.myIdx != root {
		return nil
	}
	out := make([]T, len(all))
	copy(out, all)
	return out
}
