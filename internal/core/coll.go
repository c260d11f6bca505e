package core

// The in-process world team's collectives. UPC++ inherits its
// collectives from GASNet (the paper's benchmarks use barrier, broadcast,
// reductions and gathers); team.go holds them for every team, over the
// conduit's keyed rendezvous. Only the world of an in-process job lives
// here, selected once when World() builds the team (Team.slot): it
// rendezvouses through the engine's one shared slot — one allocation
// per collective, shared read-only, which is what keeps fig8's
// 32,768-rank allgathers linear in memory — and it charges exactly the
// costs the paper's figures were generated with: the engine
// rendezvous's charge, then the collective's own sim.Model cost (the
// engine's BarrierRelease for a barrier).

func worldBroadcast[T any](me *Rank, v T, root int) T {
	bytes := int(sizeOf[T]())
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
	me.ep.Clock.Advance(me.job.model.BroadcastCost(me.Ranks(), bytes))
	return *(slot.(*T))
}

func worldAllGather[T any](me *Rank, v T) []T {
	bytes := int(sizeOf[T]())
	slot := me.ep.Collective(
		func(n int) any { return make([]T, n) },
		func(s any) { s.([]T)[me.id] = v },
		nil,
		0,
	)
	me.ep.Clock.Advance(me.job.model.AllGatherCost(me.Ranks(), bytes))
	return slot.([]T)
}

// worldReduce folds exactly once, in rank order — so non-commutative-
// but-associative folds and floating-point sums are deterministic
// across runs and rank counts.
func worldReduce[T any](me *Rank, v T, op func(a, b T) T) T {
	bytes := int(sizeOf[T]())
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
	me.ep.Clock.Advance(me.job.model.AllReduceCost(me.Ranks(), bytes))
	return slot.result
}

// worldReduceSlices is the sum-of-partial-images idiom of the paper's
// Embree port: the fold runs once in rank order (deterministic); the
// cost model charges the pipelined large-payload reduction — log(P)
// latency stages plus twice the payload's wire time.
func worldReduceSlices[T any](me *Rank, contrib []T, op func(a, b T) T, root int) []T {
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
	me.ep.Clock.Advance(me.job.model.ReduceSlicesCost(me.Ranks(), bytes))
	me.Work(float64(len(contrib))) // local combine share
	if me.id == root {
		return slot.out
	}
	return nil
}
