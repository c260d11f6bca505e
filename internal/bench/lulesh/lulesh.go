package lulesh

import (
	"math"

	"upcxx/internal/core"
	"upcxx/internal/mpi"
	"upcxx/internal/sim"
)

// Params configures a run. Ranks = Side^3, matching the application's
// perfect-cube requirement (Fig 8's x-axis values are all cubes).
type Params struct {
	Side    int // rank-grid edge; Ranks = Side^3
	E       int // elements per dimension per rank (weak scaling unit)
	Iters   int
	Flavor  string // "mpi" or "upcxx"
	Machine sim.Machine
	Virtual bool

	// ComputeScale multiplies the modeled compute charges (0 = 1). The
	// proxy's physics runs ~650 flops/zone/iter; production LULESH with
	// full hourglass control and material models runs several thousand.
	// The harness raises this to model production zone cost while the
	// proxy's real arithmetic still verifies the exchanged data.
	ComputeScale float64
}

// Result reports the metrics of Fig 8.
type Result struct {
	Ranks    int
	Seconds  float64
	FOM      float64 // zones/second, the paper's figure of merit
	Checksum float64 // bit-identical between flavors
	Energy   float64 // total internal + kinetic at the end
}

// Counters reports the run's metrics as named counters for the benchmark
// harness; "zones_per_sec" is the paper's FOM.
func (r Result) Counters() map[string]float64 {
	return map[string]float64{
		"zones_per_sec": r.FOM,
		"checksum":      r.Checksum,
		"energy":        r.Energy,
	}
}

// Run executes the proxy app.
func Run(p Params) Result {
	ranks := p.Side * p.Side * p.Side
	n := p.E + 1
	// Landing buffers: 3 fields x (6 faces N^2 + 12 edges N + 8 corners)
	// doubles, with slack; kept tight so 32K-rank jobs fit in memory.
	boundary := 6*n*n + 12*n + 8
	cfg := core.Config{
		Ranks:        ranks,
		Machine:      p.Machine,
		SW:           sim.SWUPCXX,
		SegmentBytes: 3*8*boundary*2 + (1 << 14),
	}
	if p.Flavor == "mpi" {
		cfg.SW = sim.SWMPI
	}

	scale := p.ComputeScale
	if scale <= 0 {
		scale = 1
	}
	var checksum, energy float64
	st := core.Run(cfg, func(me *core.Rank) {
		id := me.ID()
		rx, ry, rz := id/(p.Side*p.Side), (id/p.Side)%p.Side, id%p.Side
		d := NewDomain(rx, ry, rz, p.Side, p.E)

		var comm *mpi.Comm
		var all [2][]landing
		var mine [2]landing
		if p.Flavor == "mpi" {
			comm = mpi.New(me)
		} else {
			all, mine = newLanding(me, d, 3)
		}
		me.Barrier()

		// One-time nodal mass accumulation across rank boundaries (as
		// in LULESH's SetupCommBuffers/initial exchange).
		if p.Flavor == "mpi" {
			exchangeMPI(me, comm, d, d.massFields(), 1000)
		} else {
			exchangeUPCXX(me, d, d.massFields(), all[0], mine[0])
			me.Barrier() // mass landing set 0 is reused by iteration 0
		}
		me.Barrier()

		// Memory traffic of one Lagrange step over the field arrays
		// (nodal: 10 fields touched ~2x; element: 5 fields ~2x).
		nodal := float64(d.N * d.N * d.N)
		elems := float64(d.E * d.E * d.E)
		memPerIter := (nodal*10 + elems*5) * 8 * 2

		for iter := 0; iter < p.Iters; iter++ {
			// Lagrange nodal phase: element stress -> nodal forces.
			me.Work(scale * d.calcForces())

			// The hallmark 26-neighbor force accumulation.
			if p.Flavor == "mpi" {
				exchangeMPI(me, comm, d, d.forceFields(), 2000+iter%2)
			} else {
				exchangeUPCXX(me, d, d.forceFields(), all[iter%2], mine[iter%2])
			}

			// Integrate nodes, update elements, reduce the timestep.
			me.Work(scale * d.advanceNodes())
			flops, dtBound := d.updateElements()
			me.Work(scale * flops)
			me.MemWork(scale * memPerIter)
			dtNew := core.TeamReduce(me.World(), dtBound, math.Min)
			d.dt = math.Min(dtNew, d.dt*1.1) // LULESH-style dt growth cap
		}
		me.Barrier()

		inner, kin := d.totalEnergy()
		eTot := core.TeamReduce(me.World(), inner+kin, func(a, b float64) float64 { return a + b })
		cs := core.TeamReduce(me.World(), d.checksum(), func(a, b float64) float64 { return a + b })
		if me.ID() == 0 {
			checksum = cs
			energy = eTot
		}
		me.Barrier()
	})

	secs := st.Seconds(p.Virtual)
	zones := float64(ranks) * float64(p.E*p.E*p.E)
	res := Result{Ranks: ranks, Seconds: secs, Checksum: checksum, Energy: energy}
	if secs > 0 {
		res.FOM = zones * float64(p.Iters) / secs
	}
	return res
}
