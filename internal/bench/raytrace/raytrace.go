package raytrace

import (
	"upcxx/internal/core"
	"upcxx/internal/sim"
)

// FlopsPerBounce is the default modeled arithmetic per ray bounce against
// this package's small sphere scene. Embree-scale scenes (BVHs over
// thousands of triangles, many intersection tests per ray) cost orders of
// magnitude more per bounce; the harness raises Params.FlopsPerBounce to
// model them while still tracing the real (small) scene for image
// verification.
const FlopsPerBounce = 1800

// Params configures a render.
type Params struct {
	Ranks   int // one rank per node in the paper's configuration
	Width   int
	Height  int
	SPP     int // samples per pixel
	Depth   int // path depth
	Tile    int // tile edge (paper uses an image-plane tile decomposition)
	Workers int // node-local parallel ways ("OpenMP threads"); 0 = CoresPerNode
	Machine sim.Machine
	Virtual bool
	Steal   bool // enable distributed work stealing (paper's future work)

	// FlopsPerBounce overrides the modeled per-bounce cost (0 = the
	// package default); used to model Embree-scale scene complexity.
	FlopsPerBounce float64
}

// Result reports a render's metrics.
type Result struct {
	Ranks    int
	Seconds  float64
	Checksum float64 // image checksum, identical for every rank count
	Steals   int64   // successful remote steals (Steal mode)
	Image    []float64
}

// Counters reports the run's metrics as named counters for the benchmark
// harness.
func (r Result) Counters() map[string]float64 {
	c := map[string]float64{
		"checksum": r.Checksum,
	}
	if r.Seconds > 0 {
		c["pixels_per_sec"] = float64(len(r.Image)) / r.Seconds
	}
	if r.Steals > 0 {
		c["steals"] = float64(r.Steals)
	}
	return c
}

// Run renders the scene with a static cyclic tile distribution and a
// sum-reduction of partial images (paper §V-D). With p.Steal it uses the
// distributed work-stealing extension instead (see steal.go).
func Run(p Params) Result {
	if p.Tile <= 0 {
		p.Tile = 32
	}
	if p.Depth <= 0 {
		p.Depth = 6
	}
	if p.Workers <= 0 {
		p.Workers = p.Machine.CoresPerNode
	}
	if p.FlopsPerBounce <= 0 {
		p.FlopsPerBounce = FlopsPerBounce
	}
	if p.Steal {
		return runStealing(p)
	}
	cfg := core.Config{Ranks: p.Ranks, Machine: p.Machine, SW: sim.SWUPCXX}

	var checksum float64
	var image []float64
	st := core.Run(cfg, func(me *core.Rank) {
		sc := BuildScene()
		cam := NewCamera(float64(p.Width) / float64(p.Height))
		tilesX := (p.Width + p.Tile - 1) / p.Tile
		tilesY := (p.Height + p.Tile - 1) / p.Tile
		nTiles := tilesX * tilesY

		partial := make([]float64, p.Width*p.Height*3)
		totalBounces := 0
		// Static cyclic tile distribution among ranks; within the rank
		// the tiles are dynamically scheduled over node-local workers,
		// modeled by charging the bounce-proportional compute divided by
		// the worker count.
		for tile := me.ID(); tile < nTiles; tile += me.Ranks() {
			totalBounces += renderTile(sc, cam, partial, tile, tilesX, p)
		}
		me.WorkParallel(float64(totalBounces)*p.FlopsPerBounce, p.Workers)
		me.Barrier()

		// Final gather: a sum-reduction of the partial images (the
		// paper replaced gatherv with an image reduction).
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
		Image:    image,
	}
}

// renderTile renders one tile into the partial image and returns the
// bounce count.
func renderTile(sc *Scene, cam *Camera, partial []float64, tile, tilesX int, p Params) int {
	tx, ty := tile%tilesX, tile/tilesX
	bounces := 0
	for py := ty * p.Tile; py < min((ty+1)*p.Tile, p.Height); py++ {
		for px := tx * p.Tile; px < min((tx+1)*p.Tile, p.Width); px++ {
			col, b := RenderPixel(sc, cam, px, py, p.Width, p.Height, p.SPP, p.Depth)
			o := (py*p.Width + px) * 3
			partial[o] = col.X
			partial[o+1] = col.Y
			partial[o+2] = col.Z
			bounces += b
		}
	}
	return bounces
}
