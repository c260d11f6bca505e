package core

// Typed collectives built on the gasnet rendezvous. UPC++ inherits its
// collectives from GASNet (the paper's benchmarks use barrier, broadcast,
// reductions and gathers); these are the Go equivalents. All are
// collective: every rank must call them in the same order. Costs are
// charged per binomial-tree stage plus wire time for the payload;
// large-payload reductions charge the pipelined (bandwidth-bound) form.
//
// The functions here are the world-team specializations behind the
// team-scoped API in team.go, which is the only public surface. The
// world team keeps its pre-team fast paths: in-process it
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
