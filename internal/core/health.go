package core

import (
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// Rank health: the core-level view of the failure detector. On a
// resilient wire job the conduit's heartbeat plane declares peers dead
// (gasnet.ResilientConduit) and the death lands here, on the SPMD
// goroutine, via markRankDead; on the in-process backend a chaos plan
// simulates deaths against the wall clock (chaos.go) and feeds the
// same entry point. Either way the effect is uniform: operations
// addressed to a dead rank fail fast with a typed ErrRankDead instead
// of hanging, pending work the corpse can never acknowledge is
// credited so Finish drains, and registered death callbacks run so
// layers above (the DHT's replica router) can re-route.

// ErrRankDead is the sentinel matched (errors.Is) by every failure an
// operation reports because its target rank was declared dead. It is
// gasnet.ErrRankDead re-exported at the API surface.
var ErrRankDead = gasnet.ErrRankDead

// ErrTimeout is the sentinel matched by per-attempt reply-deadline
// expiries under a RetryPolicy with AttemptTimeout set.
var ErrTimeout = gasnet.ErrTimeout

// RankAlive reports whether rank is still considered alive by this
// rank's failure detector. Always true on a job without resilience or
// a chaos plan. A rank never declares itself dead.
func (r *Rank) RankAlive(rank int) bool {
	r.chaosSync()
	return !r.rankDead(rank)
}

func (r *Rank) rankDead(rank int) bool {
	return r.deadRanks != nil && rank >= 0 && rank < len(r.deadRanks) && r.deadRanks[rank]
}

// deadErrFor builds the typed failure for an operation addressed to a
// dead rank.
func (r *Rank) deadErrFor(rank int) error {
	return &gasnet.RankDeadError{Rank: rank}
}

// OnRankDeath registers fn to run on me's goroutine when a rank is
// declared dead, after the runtime's own sweep (pending calls failed,
// finish credits restored). Registrations are per-rank and fire at
// most once per dead rank.
func OnRankDeath(me *Rank, fn func(rank int)) {
	me.enter()
	defer me.exit()
	me.deathCbs = append(me.deathCbs, fn)
}

// markRankDead is the single entry point a rank death funnels through,
// on this rank's SPMD goroutine: record it, fail every pending RPC
// reply the corpse owed us, restore the finish credits its unsent
// done-acks hold, then run the death callbacks. Exactly once per rank.
func (r *Rank) markRankDead(rank int) {
	if rank == r.id || r.rankDead(rank) {
		return
	}
	if r.deadRanks == nil {
		r.deadRanks = make([]bool, r.Ranks())
	}
	if rank < 0 || rank >= len(r.deadRanks) {
		return
	}
	r.deadRanks[rank] = true
	obs.MarkDead(rank, "declared dead")
	r.ring.Instant(obs.KDeath, int32(rank), 0, 0)
	obs.Logf(1, r.id, "rank %d declared dead", rank)
	t := r.Clock()
	// Pending task replies from the dead rank will never arrive: fail
	// them typed. Collect first — failCall mutates the map.
	var doomed []uint64
	for id, pc := range r.calls {
		if pc.target == rank {
			doomed = append(doomed, id)
		}
	}
	for _, id := range doomed {
		r.failCall(id, r.deadErrFor(rank))
	}
	// Nor will the answers to its retired calls' other attempts.
	for id, v := range r.voidCalls {
		if v.target == rank {
			delete(r.voidCalls, id)
		}
	}
	// Done-acks the dead rank's task subtrees would have sent: credit
	// their scopes so a surrounding Finish drains instead of hanging.
	if m := r.remoteSlots[rank]; m != nil {
		delete(r.remoteSlots, rank)
		for fs, n := range m {
			fs.childDoneN(n, t, r)
		}
	}
	for _, fn := range r.deathCbs {
		fn(rank)
	}
}
