package core

// Typed collectives built on the gasnet rendezvous. UPC++ inherits its
// collectives from GASNet (the paper's benchmarks use barrier, broadcast,
// reductions and gathers); these are the Go equivalents. All are
// collective: every rank must call them in the same order. Costs are
// charged per binomial-tree stage plus wire time for the payload;
// large-payload reductions charge the pipelined (bandwidth-bound) form.
//
// The flat free functions here are the world-team specializations; the
// team-scoped API in team.go is the primary surface (these remain as
// thin wrappers so old call sites keep compiling).

// Broadcast distributes root's value to every rank and returns it.
//
// Deprecated: use TeamBroadcast(me.World(), v, root); this wrapper
// delegates to it.
func Broadcast[T any](me *Rank, v T, root int) T {
	return TeamBroadcast(me.World(), v, root)
}

// AllGather collects one value per rank; the returned slice is indexed by
// rank and shared read-only by all ranks (do not mutate it).
//
// Deprecated: use TeamAllGather(me.World(), v); this wrapper delegates
// to it.
func AllGather[T any](me *Rank, v T) []T {
	return TeamAllGather(me.World(), v)
}

// Reduce combines one value per rank with op (which must be associative)
// and returns the result on every rank (an allreduce).
//
// Deprecated: use TeamReduce(me.World(), v, op); this wrapper delegates
// to it.
func Reduce[T any](me *Rank, v T, op func(a, b T) T) T {
	return TeamReduce(me.World(), v, op)
}

// ReduceSlices element-wise combines equal-length slices from every rank
// into root's dst; non-root ranks receive nil.
//
// Deprecated: use TeamReduceSlices(me.World(), contrib, op, root); this
// wrapper delegates to it.
func ReduceSlices[T any](me *Rank, contrib []T, op func(a, b T) T, root int) []T {
	return TeamReduceSlices(me.World(), contrib, op, root)
}

// ExclusiveScan returns the exclusive prefix "sum" of v across ranks under
// op with the given identity (rank 0 receives identity).
//
// Deprecated: use TeamExclusiveScan(me.World(), v, op, identity); this
// wrapper delegates to it.
func ExclusiveScan[T any](me *Rank, v T, op func(a, b T) T, identity T) T {
	return TeamExclusiveScan(me.World(), v, op, identity)
}

// Gather collects one value per rank on root (indexed by rank); other
// ranks receive nil. The returned slice is root-private.
//
// Deprecated: use TeamGatherAll(me.World(), v, root); this wrapper
// delegates to it.
func Gather[T any](me *Rank, v T, root int) []T {
	return TeamGatherAll(me.World(), v, root)
}

// ---- World-team specializations ----
//
// The world team keeps its pre-team fast paths: in-process it
// rendezvouses through one shared slot (one allocation per collective,
// shared read-only — what keeps 32K-rank metadata exchanges linear in
// memory), and on the wire it rides the conduit's world allgather with
// its resilience semantics (dead ranks' slots come back empty).

func worldBroadcast[T any](me *Rank, v T, root int) T {
	bytes := int(sizeOf[T]())
	if me.onWire() {
		return wireBroadcast(me, v, root)
	}
	slot := me.ep.Collective(
		func(int) any { return new(T) },
		func(s any) {
			if me.id == root {
				*(s.(*T)) = v
			}
		},
		nil,
		0,
	)
	mo := me.job.model
	me.ep.Clock.Advance(float64(mo.CollStages()) * mo.CollStageCost(bytes))
	return *(slot.(*T))
}

func worldAllGather[T any](me *Rank, v T) []T {
	bytes := int(sizeOf[T]())
	if me.onWire() {
		return wireExchange(me, v)
	}
	slot := me.ep.Collective(
		func(n int) any { return make([]T, n) },
		func(s any) { s.([]T)[me.id] = v },
		nil,
		0,
	)
	mo := me.job.model
	cost := float64(mo.CollStages())*mo.CollStageCost(bytes) +
		float64(me.Ranks()-1)*mo.WireNs(bytes)
	me.ep.Clock.Advance(cost)
	return slot.([]T)
}

// worldReduce folds exactly once, in rank order — so non-commutative-
// but-associative folds and floating-point sums are deterministic
// across runs and rank counts.
func worldReduce[T any](me *Rank, v T, op func(a, b T) T) T {
	bytes := int(sizeOf[T]())
	if me.onWire() {
		return wireReduce(me, v, op)
	}
	type box struct {
		vals   []T
		result T
	}
	slot := me.ep.Collective(
		func(n int) any { return &box{vals: make([]T, n)} },
		func(s any) { s.(*box).vals[me.id] = v },
		func(s any) {
			b := s.(*box)
			acc := b.vals[0]
			for _, x := range b.vals[1:] {
				acc = op(acc, x)
			}
			b.result = acc
		},
		0,
	).(*box)
	mo := me.job.model
	// Allreduce tree: up and down, one element per stage.
	me.ep.Clock.Advance(2 * float64(mo.CollStages()) * mo.CollStageCost(bytes))
	return slot.result
}

// worldReduceSlices is the sum-of-partial-images idiom of the paper's
// Embree port: the fold runs once in rank order (deterministic); the
// cost model charges the pipelined large-payload reduction — log(P)
// latency stages plus twice the payload's wire time.
func worldReduceSlices[T any](me *Rank, contrib []T, op func(a, b T) T, root int) []T {
	if me.onWire() {
		return wireReduceSlices(me, contrib, op, root)
	}
	type box struct {
		parts [][]T
		out   []T
	}
	slot := me.ep.Collective(
		func(n int) any { return &box{parts: make([][]T, n)} },
		func(s any) { s.(*box).parts[me.id] = contrib },
		func(s any) {
			b := s.(*box)
			b.out = make([]T, len(b.parts[0]))
			copy(b.out, b.parts[0])
			for _, part := range b.parts[1:] {
				for i, x := range part {
					b.out[i] = op(b.out[i], x)
				}
			}
		},
		0,
	).(*box)

	bytes := len(contrib) * int(sizeOf[T]())
	mo := me.job.model
	me.ep.Clock.Advance(float64(mo.CollStages())*mo.CollStageCost(0) + 2*mo.WireNs(bytes))
	me.Work(float64(len(contrib))) // local combine share
	if me.id == root {
		return slot.out
	}
	return nil
}
