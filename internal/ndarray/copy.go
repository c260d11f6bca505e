package ndarray

import (
	"unsafe"

	"upcxx/internal/core"
)

func sizeofT[T any](t T) uintptr { return unsafe.Sizeof(t) }

// storage returns the array's element storage on the rank r, which must
// be the owner. Views received from other ranks (via Ref) reconstruct the
// slice from the global pointer.
func (a *Array[T]) storage(r *core.Rank) []T {
	if a.owner != r.ID() {
		panic("ndarray: storage on non-owner rank")
	}
	if a.data == nil && a.alloclen > 0 {
		a.data = core.LocalSlice(r, a.gp, a.alloclen)
	}
	return a.data
}

// pack gathers the elements of view a over domain d into a fresh buffer,
// in row-major order of d; runs on the owner's goroutine.
func (a *Array[T]) pack(r *core.Rank, d RectDomain) []T {
	data := a.storage(r)
	buf := make([]T, 0, d.Size())
	d.ForEach(func(p Point) { buf = append(buf, data[a.index(p)]) })
	r.MemWork(float64(len(buf) * a.elemBytes()))
	return buf
}

// unpack scatters buf (row-major over d) into view a; runs on the owner's
// goroutine.
func (a *Array[T]) unpack(r *core.Rank, d RectDomain, buf []T) {
	data := a.storage(r)
	i := 0
	d.ForEach(func(p Point) { data[a.index(p)] = buf[i]; i++ })
	r.MemWork(float64(len(buf) * a.elemBytes()))
}

// CopyFrom copies from array b into array a over the intersection of
// their domains — the paper's A.copy(B). The library computes the
// intersection, packs on the source side, ships one message, and unpacks
// on the destination side; the entire operation is one-sided with respect
// to the two owners (active messages do the remote work; neither owner's
// application code participates). The call blocks the initiating rank
// until the destination holds the data.
//
// Ghost-zone exchange is therefore one statement:
//
//	A.Constrict(ghost).CopyFrom(B)
func (a *Array[T]) CopyFrom(me *core.Rank, b *Array[T]) {
	inter := a.dom.Intersect(b.dom)
	if inter.IsEmpty() {
		return
	}
	bytes := inter.Size() * a.elemBytes()
	mo := me.Model()

	switch {
	case a.owner == me.ID() && b.owner == me.ID():
		// Purely local: element loop, no communication.
		ad, bd := a.storage(me), b.storage(me)
		inter.ForEach(func(p Point) { ad[a.index(p)] = bd[b.index(p)] })
		me.MemWork(float64(2 * bytes))

	case a.owner == me.ID():
		// Pull: pack at the remote source, one transfer, unpack here.
		done := false
		me.AM(b.owner, 64, func(src *core.Rank) {
			buf := b.pack(src, inter)
			arrival := mo.Arrival(src.Now(), src.ID(), me.ID(), bytes)
			src.AMAt(me.ID(), arrival, bytes, func(dst *core.Rank) {
				a.unpack(dst, inter, buf)
				done = true
			})
		})
		me.WaitUntil(func() bool { return done })

	case b.owner == me.ID():
		// Push: pack here, one transfer, unpack at the remote
		// destination, acknowledge back.
		buf := b.pack(me, inter)
		done := false
		arrival := mo.Arrival(me.Now(), me.ID(), a.owner, bytes)
		me.AMAt(a.owner, arrival, bytes, func(dst *core.Rank) {
			a.unpack(dst, inter, buf)
			dst.AMAt(me.ID(), mo.Arrival(dst.Now(), dst.ID(), me.ID(), 0), 0,
				func(*core.Rank) { done = true })
		})
		me.WaitUntil(func() bool { return done })

	default:
		// Third party: source packs and forwards straight to the
		// destination (data never visits the initiator), destination
		// acknowledges to the initiator.
		done := false
		me.AM(b.owner, 64, func(src *core.Rank) {
			buf := b.pack(src, inter)
			arrival := mo.Arrival(src.Now(), src.ID(), a.owner, bytes)
			src.AMAt(a.owner, arrival, bytes, func(dst *core.Rank) {
				a.unpack(dst, inter, buf)
				dst.AMAt(me.ID(), mo.Arrival(dst.Now(), dst.ID(), me.ID(), 0), 0,
					func(*core.Rank) { done = true })
			})
		})
		me.WaitUntil(func() bool { return done })
	}
}

// CopyFromAsync is CopyFrom completing into a completion object instead
// of blocking: the initiator returns as soon as the protocol is
// launched, and done completes (an *Event fires, a *Promise counts
// down) when the destination has unpacked. Overlapping several ghost
// exchanges is the paper's motivating use of events; pass one *Promise
// to a batch of face copies and chain on its future for the
// futures-first spelling (see examples/heat3d).
func (a *Array[T]) CopyFromAsync(me *core.Rank, b *Array[T], done core.Completer) {
	inter := a.dom.Intersect(b.dom)
	if inter.IsEmpty() {
		core.CompleteNow(done, me)
		return
	}
	bytes := inter.Size() * a.elemBytes()
	mo := me.Model()
	core.RegisterWith(done, me, 1)

	switch {
	case a.owner == me.ID() && b.owner == me.ID():
		ad, bd := a.storage(me), b.storage(me)
		inter.ForEach(func(p Point) { ad[a.index(p)] = bd[b.index(p)] })
		me.MemWork(float64(2 * bytes))
		core.CompleteAt(done, me.Now(), me)

	case b.owner == me.ID():
		buf := b.pack(me, inter)
		arrival := mo.Arrival(me.Now(), me.ID(), a.owner, bytes)
		me.AMAt(a.owner, arrival, bytes, func(dst *core.Rank) {
			a.unpack(dst, inter, buf)
			core.CompleteAt(done, dst.Now(), dst)
		})

	default:
		me.AM(b.owner, 64, func(src *core.Rank) {
			buf := b.pack(src, inter)
			arrival := mo.Arrival(src.Now(), src.ID(), a.owner, bytes)
			src.AMAt(a.owner, arrival, bytes, func(dst *core.Rank) {
				a.unpack(dst, inter, buf)
				core.CompleteAt(done, dst.Now(), dst)
			})
		})
	}
}
