package raytrace

import (
	"sync/atomic"

	"upcxx/internal/core"
	"upcxx/internal/sim"
)

// runStealing implements the paper's stated future work for the renderer
// (§V-D): "global load balancing via distributed work queues and work
// stealing". Each rank owns a deque of tiles, initially the same cyclic
// assignment as the static version; when a rank runs dry it steals tiles
// from round-robin victims with async remote function invocations — the
// PGAS idiom the paper cites [Olivier & Prins].
//
// The rendered image is bit-identical to the static distribution: every
// tile is rendered exactly once by whoever dequeued it, and the partial
// images are sum-reduced.
func runStealing(p Params) Result {
	cfg := core.Config{Ranks: p.Ranks, Machine: p.Machine, SW: sim.SWUPCXX}

	var checksum float64
	var image []float64
	var steals atomic.Int64
	var remaining atomic.Int64

	tilesX := (p.Width + p.Tile - 1) / p.Tile
	tilesY := (p.Height + p.Tile - 1) / p.Tile
	nTiles := tilesX * tilesY
	remaining.Store(int64(nTiles))

	// Per-rank deques, owned by the rank's goroutine (steal requests are
	// async tasks executing there, so no locking is required).
	deques := make([][]int, p.Ranks)
	for r := range deques {
		for tile := r; tile < nTiles; tile += p.Ranks {
			deques[r] = append(deques[r], tile)
		}
	}

	st := core.Run(cfg, func(me *core.Rank) {
		sc := BuildScene()
		cam := NewCamera(float64(p.Width) / float64(p.Height))
		partial := make([]float64, p.Width*p.Height*3)
		totalBounces := 0

		render := func(tile int) {
			totalBounces += renderTile(sc, cam, partial, tile, tilesX, p)
			remaining.Add(-1)
		}

		victim := (me.ID() + 1) % me.Ranks()
		for remaining.Load() > 0 {
			// Drain the local deque (LIFO for locality).
			if q := deques[me.ID()]; len(q) > 0 {
				tile := q[len(q)-1]
				deques[me.ID()] = q[:len(q)-1]
				render(tile)
				continue
			}
			if me.Ranks() == 1 {
				break
			}
			// Steal: ask the victim's goroutine for the oldest half of
			// its deque (steal-half heuristic).
			v := victim
			victim = (victim + 1) % me.Ranks()
			if v == me.ID() {
				continue
			}
			f := core.AsyncFuture(me, v, func(vr *core.Rank) [2]int {
				q := deques[vr.ID()]
				if len(q) == 0 {
					return [2]int{-1, -1}
				}
				take := (len(q) + 1) / 2
				stolen := [2]int{q[0], take}
				return stolen
			})
			got := f.Get()
			if got[0] < 0 {
				continue
			}
			// Second round trip commits the steal (the two-phase shape
			// of distributed deque protocols, simplified).
			fc := core.AsyncFuture(me, v, func(vr *core.Rank) []int {
				q := deques[vr.ID()]
				if len(q) == 0 {
					return nil
				}
				take := (len(q) + 1) / 2
				stolen := append([]int(nil), q[:take]...)
				deques[vr.ID()] = q[take:]
				return stolen
			})
			stolen := fc.Get()
			if len(stolen) == 0 {
				continue
			}
			steals.Add(1)
			for _, tile := range stolen {
				render(tile)
			}
		}
		me.WorkParallel(float64(totalBounces)*p.FlopsPerBounce, p.Workers)
		me.Barrier()

		img := core.TeamReduceSlices(me.World(), partial, func(a, b float64) float64 { return a + b }, 0)
		if me.ID() == 0 {
			sum := 0.0
			for _, v := range img {
				sum += v
			}
			checksum = sum
			image = img
		}
		me.Barrier()
	})

	return Result{
		Ranks:    p.Ranks,
		Seconds:  st.Seconds(p.Virtual),
		Checksum: checksum,
		Steals:   steals.Load(),
		Image:    image,
	}
}
