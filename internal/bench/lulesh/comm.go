package lulesh

import (
	"upcxx/internal/core"
	"upcxx/internal/mpi"
)

// dir is one of the 26 neighbor directions of a rank in the 3-D rank
// grid. LULESH's hallmark pattern: faces (N^2 shared nodes), edges (N)
// and corners (1) all participate, and the data is non-contiguous in two
// of the three dimensions, forcing pack/unpack (paper §V-E).
type dir struct{ dx, dy, dz int }

// dirs26 lists the neighbor directions in a fixed order; both the MPI
// and UPC++ flavors unpack in this order, so their floating-point
// accumulations are bit-identical.
var dirs26 = func() []dir {
	var ds []dir
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				ds = append(ds, dir{dx, dy, dz})
			}
		}
	}
	return ds
}()

// opposite returns the index of the mirrored direction.
func opposite(di int) int { return len(dirs26) - 1 - di }

// sel returns the node-index range along one axis for a direction
// component: the low plane, the high plane, or the full extent.
func sel(comp, n int) (lo, hi int) {
	switch {
	case comp < 0:
		return 0, 1
	case comp > 0:
		return n - 1, n
	default:
		return 0, n
	}
}

// boundaryCount returns the number of shared nodes with the neighbor in
// direction d.
func (d *Domain) boundaryCount(dd dir) int {
	lx, hx := sel(dd.dx, d.N)
	ly, hy := sel(dd.dy, d.N)
	lz, hz := sel(dd.dz, d.N)
	return (hx - lx) * (hy - ly) * (hz - lz)
}

// forBoundary visits the shared node set for direction dd in a fixed
// row-major order; the neighbor's mirrored set visits corresponding
// nodes in the same order.
func (d *Domain) forBoundary(dd dir, f func(ni int)) {
	lx, hx := sel(dd.dx, d.N)
	ly, hy := sel(dd.dy, d.N)
	lz, hz := sel(dd.dz, d.N)
	for ix := lx; ix < hx; ix++ {
		for iy := ly; iy < hy; iy++ {
			for iz := lz; iz < hz; iz++ {
				f(d.nodeIdx(ix, iy, iz))
			}
		}
	}
}

// neighborRank returns the linear rank of the neighbor in direction dd,
// or -1 at the domain boundary.
func (d *Domain) neighborRank(dd dir) int {
	nx, ny, nz := d.rx+dd.dx, d.ry+dd.dy, d.rz+dd.dz
	if nx < 0 || ny < 0 || nz < 0 || nx >= d.side || ny >= d.side || nz >= d.side {
		return -1
	}
	return (nx*d.side+ny)*d.side + nz
}

// fields selects which nodal arrays an exchange accumulates.
type fields struct {
	arrs []([]float64)
}

func (d *Domain) forceFields() fields { return fields{[][]float64{d.fx, d.fy, d.fz}} }
func (d *Domain) massFields() fields  { return fields{[][]float64{d.mass}} }

// pack gathers the boundary values of the given fields for direction dd.
func (d *Domain) pack(dd dir, fs fields, buf []float64) []float64 {
	buf = buf[:0]
	for _, a := range fs.arrs {
		d.forBoundary(dd, func(ni int) { buf = append(buf, a[ni]) })
	}
	return buf
}

// unpackAdd accumulates received boundary contributions.
func (d *Domain) unpackAdd(dd dir, fs fields, buf []float64) {
	k := 0
	for _, a := range fs.arrs {
		d.forBoundary(dd, func(ni int) { a[ni] += buf[k]; k++ })
	}
}

// exchangeMPI performs one 26-neighbor accumulate with two-sided
// messaging: post all receives, send all packs, wait, then unpack in
// direction order (the paper's MPI_Isend/MPI_Irecv structure).
func exchangeMPI(me *core.Rank, c *mpi.Comm, d *Domain, fs fields, tagBase int) {
	nf := len(fs.arrs)
	type slot struct {
		di  int
		buf []float64
	}
	var reqs []*mpi.Request
	var recvs []slot
	for di, dd := range dirs26 {
		if d.neighborRank(dd) < 0 {
			continue
		}
		buf := make([]float64, d.boundaryCount(dd)*nf)
		recvs = append(recvs, slot{di, buf})
		reqs = append(reqs, mpi.Irecv(c, d.neighborRank(dd), tagBase+opposite(di), buf))
	}
	sendBuf := make([]float64, 0, d.N*d.N*nf)
	for di, dd := range dirs26 {
		nb := d.neighborRank(dd)
		if nb < 0 {
			continue
		}
		sendBuf = d.pack(dd, fs, sendBuf)
		out := make([]float64, len(sendBuf))
		copy(out, sendBuf)
		me.MemWork(float64(len(out) * 8)) // pack cost
		reqs = append(reqs, mpi.Isend(c, nb, tagBase+di, out))
	}
	c.Wait(reqs...)
	for _, s := range recvs {
		d.unpackAdd(dirs26[s.di], fs, s.buf)
		me.MemWork(float64(len(s.buf) * 8)) // unpack cost
	}
	// No barrier: two-sided message semantics already order the data;
	// alternating tag bases keep adjacent iterations from matching each
	// other. The one-sided flavor pays a barrier here instead — that is
	// the protocol tradeoff Fig 8 measures.
}

// landing is the UPC++ flavor's pre-registered receive area: one segment
// buffer per direction, written by the corresponding neighbor with
// one-sided non-blocking puts.
type landing struct {
	bufs [26]core.GlobalPtr[float64]
	n    [26]int
}

// newLanding allocates this rank's landing buffers — double-buffered so
// that iteration k+1's puts cannot overwrite buffers iteration k has not
// yet unpacked (the standard trick that removes one barrier per
// exchange) — and gathers everyone's (the one-time setup one-sided
// communication needs).
func newLanding(me *core.Rank, d *Domain, maxFields int) ([2][]landing, [2]landing) {
	var mine [2]landing
	for set := 0; set < 2; set++ {
		for di, dd := range dirs26 {
			if d.neighborRank(dd) < 0 {
				continue
			}
			n := d.boundaryCount(dd) * maxFields
			mine[set].bufs[di] = core.Allocate[float64](me, me.ID(), n)
			mine[set].n[di] = n
		}
	}
	var all [2][]landing
	all[0] = core.TeamAllGather(me.World(), mine[0])
	me.Barrier()
	all[1] = core.TeamAllGather(me.World(), mine[1])
	me.Barrier()
	return all, mine
}

// exchangeUPCXX performs the same accumulate with one-sided puts into
// the neighbors' landing buffers (set chosen by iteration parity), a
// single handle-less fence, and one barrier (the paper's async_copy +
// async_copy_fence structure, §V-E). A put's source must stay untouched
// until it completes, so each direction packs into its own buffer, kept
// until the fence.
func exchangeUPCXX(me *core.Rank, d *Domain, fs fields, all []landing, mine landing) {
	nf := len(fs.arrs)
	for di, dd := range dirs26 {
		nb := d.neighborRank(dd)
		if nb < 0 {
			continue
		}
		sendBuf := d.pack(dd, fs, nil)
		me.MemWork(float64(len(sendBuf) * 8))
		// My direction di lands in the neighbor's opposite(di) buffer.
		core.WriteSliceAsync(me, all[nb].bufs[opposite(di)], sendBuf, nil)
	}
	core.AsyncCopyFence(me)
	me.Barrier() // all puts have landed everywhere
	for di, dd := range dirs26 {
		if d.neighborRank(dd) < 0 {
			continue
		}
		cnt := d.boundaryCount(dd) * nf
		buf := core.LocalSlice(me, mine.bufs[di], cnt)
		d.unpackAdd(dd, fs, buf)
		me.MemWork(float64(cnt * 8))
	}
}
