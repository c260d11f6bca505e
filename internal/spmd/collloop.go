package spmd

import (
	"fmt"
	"os"
	"time"

	"upcxx/internal/core"
)

func init() {
	registry = append(registry, Prog{
		Name:         "collloop",
		Desc:         "collective latency loop: scale rounds of world Barrier + TeamAllGather, every slot folded into the checksum; rank 0 prints us per collective on stderr",
		DefaultScale: 2000, // rounds, two collectives each
		SegBytes: func(ranks, scale int) int {
			return 1 << 17
		},
		Run: collloop,
	})
}

// collloop is the benchmark's coll_hier loop as a launchable program,
// so the cost of a collective between OS processes (upcxx-run
// -procs-per-node) is a figure anyone can take again by command. The
// timing goes to stderr: stdout stays the one checksum line the
// backends are compared by.
func collloop(me *core.Rank, scale int) uint64 {
	world := me.World()
	id := uint64(me.ID())
	world.Barrier() // start the clock with every rank up
	start := time.Now()
	var sum uint64
	for it := uint64(0); it < uint64(scale); it++ {
		world.Barrier()
		for r, v := range core.TeamAllGather(world, mix(it<<8^id)) {
			if v != mix(it<<8^uint64(r)) {
				panic(fmt.Sprintf("spmd: collloop: round %d slot %d = %#x", it, r, v))
			}
			sum ^= mix(v + uint64(r))
		}
	}
	if me.ID() == 0 && scale > 0 {
		us := float64(time.Since(start).Microseconds()) / float64(2*scale)
		fmt.Fprintf(os.Stderr, "collloop: %d ranks, %d rounds: %.1f us per collective\n", me.Ranks(), scale, us)
	}
	return sum
}
