// Package stencil implements the paper's §V-B benchmark (Fig 5): a 3-D
// 7-point Jacobi stencil over a grid distributed in all three dimensions,
// one fixed-size cube per rank (weak scaling), with ghost zones exchanged
// through the multidimensional array library's one-statement copy:
//
//	A.Constrict(ghost).CopyFrom(B)
//
// Two flavors run the identical code: "upcxx" under the UPC++ profile and
// "titanium" under the Titanium profile — the paper's point being that
// the library matches the compiled language (the two curves of Fig 5 lie
// on top of each other).
package stencil

import (
	"upcxx/internal/core"
	"upcxx/internal/ndarray"
	"upcxx/internal/sim"
)

// Params configures a run.
type Params struct {
	Ranks   int
	Box     int // per-rank cube edge (paper: 256)
	Iters   int
	Flavor  string // "upcxx" or "titanium"
	Machine sim.Machine
	Virtual bool
}

// Result reports the metrics of Fig 5.
type Result struct {
	Ranks    int
	Seconds  float64
	GFLOPS   float64
	Checksum float64 // deterministic across rank counts for a fixed global grid
}

// Counters reports the run's metrics as named counters for the benchmark
// harness.
func (r Result) Counters() map[string]float64 {
	return map[string]float64{
		"gflops":        r.GFLOPS,
		"flops_per_sec": r.GFLOPS * 1e9,
		"checksum":      r.Checksum,
	}
}

// Factor3 splits p into three near-equal factors px >= py >= pz with
// px*py*pz = p (the rank grid).
func Factor3(p int) (int, int, int) {
	best := [3]int{p, 1, 1}
	bestSur := surrogate(p, 1, 1)
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b
			if s := surrogate(c, b, a); s < bestSur {
				bestSur = s
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// surrogate scores a factorization by total surface area (lower is a
// better decomposition).
func surrogate(x, y, z int) int { return x*y + y*z + z*x }

const flopsPerPoint = 8 // 6 adds + 2 multiplies, the paper's count

// Run executes the benchmark.
func Run(p Params) Result {
	sw := sim.SWUPCXX
	if p.Flavor == "titanium" {
		sw = sim.SWTitanium
	}
	n := p.Box
	cfg := core.Config{
		Ranks:        p.Ranks,
		Machine:      p.Machine,
		SW:           sw,
		SegmentBytes: 2*(n+2)*(n+2)*(n+2)*8 + (1 << 17),
	}
	px, py, pz := Factor3(p.Ranks)

	var checksum float64
	st := core.Run(cfg, func(me *core.Rank) {
		// My coordinates in the rank grid.
		id := me.ID()
		cx, cy, cz := id/(py*pz), (id/pz)%py, id%pz

		// Interior in global coordinates; allocation grown by one ghost
		// layer. Using global coordinates makes ghost exchange a pure
		// domain intersection.
		interior := ndarray.RD3(cx*n, cy*n, cz*n, (cx+1)*n, (cy+1)*n, (cz+1)*n)
		footprint := interior.Grow(1)
		A := ndarray.New[float64](me, footprint)
		B := ndarray.New[float64](me, footprint)

		// Deterministic initial condition on the global grid.
		{
			data := A.Local(me)
			interior.ForEach(func(q ndarray.Point) {
				gx, gy, gz := q.Get(0), q.Get(1), q.Get(2)
				data[A.Idx(q)] = float64((gx*31+gy*17+gz*7)%100) * 0.01
			})
		}
		me.Barrier()

		refsA := core.TeamAllGather(me.World(), A.Ref())
		refsB := core.TeamAllGather(me.World(), B.Ref())
		me.Barrier()

		rankAt := func(x, y, z int) int { return (x*py+y)*pz + z }
		type neighbor struct {
			rank int
			dim  int
			side int
		}
		var nbrs []neighbor
		if cx > 0 {
			nbrs = append(nbrs, neighbor{rankAt(cx-1, cy, cz), 0, -1})
		}
		if cx < px-1 {
			nbrs = append(nbrs, neighbor{rankAt(cx+1, cy, cz), 0, +1})
		}
		if cy > 0 {
			nbrs = append(nbrs, neighbor{rankAt(cx, cy-1, cz), 1, -1})
		}
		if cy < py-1 {
			nbrs = append(nbrs, neighbor{rankAt(cx, cy+1, cz), 1, +1})
		}
		if cz > 0 {
			nbrs = append(nbrs, neighbor{rankAt(cx, cy, cz-1), 2, -1})
		}
		if cz < pz-1 {
			nbrs = append(nbrs, neighbor{rankAt(cx, cy, cz+1), 2, +1})
		}

		const c = 0.4 // central coefficient
		src, dst := A, B
		srcRefs, dstRefs := refsA, refsB

		for iter := 0; iter < p.Iters; iter++ {
			// Ghost exchange: each ghost face intersected with the
			// neighbor's array recovers exactly the neighbor's boundary
			// plane; one statement per face, overlapped through an
			// event (paper §III-D).
			ev := core.NewEvent()
			for _, nb := range nbrs {
				ghost := footprint.Face(nb.dim, nb.side, 1)
				src.Constrict(ghost).CopyFromAsync(me, ndarray.FromRef(srcRefs[nb.rank]), ev)
			}
			ev.Wait(me)
			// No barrier here: the compute reads only this rank's arrays
			// (src stays immutable until the end-of-iteration barrier),
			// and a neighbor still pulling our face is serviced while we
			// wait at that barrier.

			// Local 7-point computation over the interior, one
			// dimension at a time (the paper's foreach3 + unstrided
			// specialization): real arithmetic, then a model charge for
			// the memory-bound kernel.
			sdata, ddata := src.Local(me), dst.Local(me)
			si := src.Idx3(1, 0, 0) - src.Idx3(0, 0, 0)
			sj := src.Idx3(0, 1, 0) - src.Idx3(0, 0, 0)
			for i := interior.Lo().Get(0); i < interior.Hi().Get(0); i++ {
				// Progress: service neighbors' ghost pulls while
				// computing (the paper's advance(), §IV — called by the
				// user program so active messages drain promptly).
				me.Advance()
				for j := interior.Lo().Get(1); j < interior.Hi().Get(1); j++ {
					base := src.Idx3(i, j, interior.Lo().Get(2))
					dbase := dst.Idx3(i, j, interior.Lo().Get(2))
					for k := 0; k < n; k++ {
						o := base + k
						ddata[dbase+k] = c*sdata[o] +
							sdata[o+1] + sdata[o-1] +
							sdata[o+sj] + sdata[o-sj] +
							sdata[o+si] + sdata[o-si]
					}
				}
			}
			points := float64(interior.Size())
			me.Work(flopsPerPoint * points)
			me.MemWork(16 * points) // read + write traffic per point
			me.Barrier()

			src, dst = dst, src
			srcRefs, dstRefs = dstRefs, srcRefs
		}
		_ = dstRefs

		// Deterministic checksum: sum of the final interior, reduced in
		// rank order.
		local := 0.0
		data := src.Local(me)
		interior.ForEach(func(q ndarray.Point) { local += data[src.Idx(q)] })
		total := core.TeamReduce(me.World(), local, func(a, b float64) float64 { return a + b })
		if me.ID() == 0 {
			checksum = total
		}
		me.Barrier()
	})

	secs := st.Seconds(p.Virtual)
	points := float64(p.Ranks) * float64(n) * float64(n) * float64(n)
	res := Result{Ranks: p.Ranks, Seconds: secs, Checksum: checksum}
	if secs > 0 {
		res.GFLOPS = flopsPerPoint * points * float64(p.Iters) / secs / 1e9
	}
	return res
}
