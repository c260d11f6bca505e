package workload

import (
	"math/rand"
	"sync/atomic"
	"time"

	"upcxx/benchmark/measure"
	"upcxx/benchmark/sut"
)

// tally is the checked-operation count of a job whose ranks run as
// goroutines: every rank adds to it, the driver reads it after the job.
type tally struct{ attempted, failed atomic.Int64 }

func (t *tally) fail(format string, args ...any) {
	logFailure(t.failed.Add(1), format, args...)
}

func (t *tally) into(res *Result) {
	res.Attempted += t.attempted.Load()
	res.Failed += t.failed.Load()
}

// runWire runs a rank body on n loopback wire ranks and folds the
// job's counters and any launch error into res.
func runWire(res *Result, n, segBytes int, cfg sut.Config, body func(me *sut.Rank)) {
	stats, err := sut.RunWireLocal(n, segBytes, cfg, body)
	if err != nil {
		res.fail("wire job: %v", err)
	}
	res.foldCounters(stats)
}

// ---- rpc_storm ----

const (
	stormRPCsPerEpoch = 50000
	stormWarmupEpochs = 20
)

// xorTask xors a caller-chosen value into a cell of the executing rank:
// 24 bytes of arguments, [cell rank][cell offset][value]. The cell is
// local to the executor, so the update is applied in the body and the
// RPC's done-ack certifies it.
var xorTask = sut.RegisterTask("upcxx-perf.xor", func(me *sut.Rank, _ int, args []byte) []byte {
	rank, rest := sut.U64(args)
	off, rest := sut.U64(rest)
	val, _ := sut.U64(rest)
	sut.AggXor64(me, sut.PtrAt(int(rank), off), val)
	return nil
})

// stormVal is the value rank's i-th RPC of an epoch carries.
func stormVal(seed int64, rank int, epoch uint64, i int) uint64 {
	return mix64(uint64(seed) ^ uint64(rank)<<62 ^ epoch<<20 ^ uint64(i))
}

// stormEpoch runs one epoch on one rank: a Finish over perEpoch RPCs to
// the peer, a barrier (after it the peer's Finish has returned too, so
// every RPC into our cell has been applied and acknowledged), and the
// check of our cell against the fold of what the peer sent. It returns
// the instants the epoch started, the last RPC was issued and the
// Finish returned.
func stormEpoch(me *sut.Rank, seed int64, perEpoch int, epoch uint64, cells []sut.Ptr, want *uint64, tl *tally) (t0, issued, t1 time.Time) {
	peer := 1 - me.ID()
	at, pc := sut.On(peer), cells[peer]
	args := make([]byte, 0, 24)
	t0 = time.Now()
	sut.Finish(me, func() {
		for i := 0; i < perEpoch; i++ {
			args = sut.AppendU64(sut.AppendU64(sut.AppendU64(args[:0], uint64(pc.Where())), pc.Offset()),
				stormVal(seed, me.ID(), epoch, i))
			sut.AsyncTask(me, at, xorTask, args)
		}
		issued = time.Now()
	})
	t1 = time.Now()
	me.Barrier()
	for i := 0; i < perEpoch; i++ {
		*want ^= stormVal(seed, peer, epoch, i)
	}
	tl.attempted.Add(int64(perEpoch))
	if got := sut.Read(me, cells[me.ID()]); got != *want {
		tl.fail("rpc_storm: rank %d epoch %d cell %#x, fold of the peer's RPCs %#x", me.ID(), epoch, got, *want)
		*want = got // one lost update is one failure, not one per later epoch
	}
	return t0, issued, t1
}

// RPCStorm is the task-throughput workload: both ranks loop epochs of
// Finish{perEpoch x AsyncTask(peer)} under adaptive aggregation. One
// operation is one RPC; the latency sample is one epoch's Finish at
// rank 0. Epochs are bounded because a single Finish over millions of
// RPCs per rank did not complete when this workload was sized.
func RPCStorm(p Params) *Result {
	res := &Result{}
	var tl tally
	perEpoch := p.scaled(stormRPCsPerEpoch, 2000)
	runWire(res, 2, 1<<17, sut.Config{Agg: sut.AggConfig{Adaptive: true}}, func(me *sut.Rank) {
		world := me.World()
		cell := sut.Allocate(me, me.ID(), 1)
		sut.Write(me, cell, 0)
		cells := sut.AllGatherPtr(world, cell)
		me.Barrier()

		var want, epoch uint64
		for ; epoch < uint64(p.scaled(stormWarmupEpochs, 2)); epoch++ {
			stormEpoch(me, p.Seed, perEpoch, epoch, cells, &want, &tl)
		}

		var w *window
		var rec *measure.Recorder
		if me.ID() == 0 {
			w = p.beginWindow(res)
			rec = w.recorder(int(p.Window.Seconds()*60), 0)
		}
		for done := false; ; epoch++ {
			// Rank 0 owns the clock; the stop decision is collective.
			stop := uint64(0)
			if done {
				stop = 1
			}
			if sut.BroadcastU64(world, stop, 0) == 1 {
				break
			}
			t0, issued, t1 := stormEpoch(me, p.Seed, perEpoch, epoch, cells, &want, &tl)
			if me.ID() == 0 {
				k := rec.Track()
				id := k.Begin("storm.epoch", t0, -1, epoch)
				k.End(k.Begin("core.issue", t0, id, epoch), issued)
				k.End(k.Begin("core.finish_drain", issued, id, epoch), t1)
				now := time.Now()
				k.End(k.Begin("barrier+verify", t1, id, epoch), now)
				k.End(id, now)
				done = rec.Op(measure.KindOther, t0, t1, 2*int64(perEpoch))
			}
		}
		if me.ID() == 0 {
			w.end(res, rec)
		}
	})
	tl.into(res)
	return res
}

// ---- onesided_small, onesided_bulk ----

const (
	smallWords     = 1 << 17 // 1 MiB of uint64 on rank 1
	smallWarmupOps = 80000

	bulkWords     = 4096 // 32 KiB per transfer
	bulkSlots     = 32   // 1 MiB region
	bulkWarmupOps = 60000
)

// onesided runs rank 0's closed loop against a region rank 1 owns while
// rank 1 sits in Barrier servicing progress. step performs the i-th
// operation and returns its kind, span name and the instants around the
// program call; verify runs after the window.
func onesided(p Params, regionWords, warmup, hintPerSec int,
	step func(me *sut.Rank, region sut.Ptr, i int, tl *tally) (kind int, name string, t0, t1 time.Time),
	verify func(me *sut.Rank, region sut.Ptr, tl *tally)) *Result {
	res := &Result{}
	var tl tally
	runWire(res, 2, regionWords*8+(1<<17), sut.Config{}, func(me *sut.Rank) {
		var mine sut.Ptr
		if me.ID() == 1 {
			mine = sut.Allocate(me, 1, regionWords)
		}
		region := sut.AllGatherPtr(me.World(), mine)[1]
		me.Barrier()
		if me.ID() == 0 {
			i := 0
			for ; i < p.scaled(warmup, 1000); i++ {
				step(me, region, i, &tl)
			}
			w := p.beginWindow(res)
			rec := w.recorder(int(p.Window.Seconds())*hintPerSec, 0)
			for done := false; !done; i++ {
				kind, name, t0, t1 := step(me, region, i, &tl)
				k := rec.Track()
				k.End(k.Begin(name, t0, -1, uint64(i)), t1)
				done = rec.Op(kind, t0, t1, 1)
			}
			w.end(res, rec)
			verify(me, region, &tl)
		}
		me.Barrier()
	})
	tl.into(res)
	return res
}

// OnesidedSmall is the fine-grained remote access workload: blocking
// 8-byte Write, Read (must return the value just written) and AtomicXor
// (must return written^operand) in rotation at seeded offsets.
func OnesidedSmall(p Params) *Result {
	rng := rand.New(rand.NewSource(p.Seed))
	shadow := make([]uint64, smallWords) // what rank 1's region must hold
	var off int
	step := func(me *sut.Rank, region sut.Ptr, i int, tl *tally) (kind int, name string, t0, t1 time.Time) {
		tl.attempted.Add(1)
		switch i % 3 {
		case 0:
			off = rng.Intn(smallWords)
			v := rng.Uint64()
			t0 = time.Now()
			sut.Write(me, region.Add(off), v)
			t1 = time.Now()
			shadow[off] = v
			return measure.KindPut, "core.Write", t0, t1
		case 1:
			t0 = time.Now()
			got := sut.Read(me, region.Add(off))
			t1 = time.Now()
			if got != shadow[off] {
				tl.fail("onesided_small: Read word %d = %#x, written %#x", off, got, shadow[off])
			}
			return measure.KindGet, "core.Read", t0, t1
		default:
			x := rng.Uint64()
			t0 = time.Now()
			got := sut.AtomicXor(me, region.Add(off), x)
			t1 = time.Now()
			shadow[off] ^= x
			if got != shadow[off] {
				tl.fail("onesided_small: AtomicXor word %d = %#x, want %#x", off, got, shadow[off])
				shadow[off] = got
			}
			return measure.KindOther, "core.AtomicXor", t0, t1
		}
	}
	verify := func(me *sut.Rank, region sut.Ptr, tl *tally) {
		got := make([]uint64, bulkWords)
		for at := 0; at < smallWords; at += bulkWords {
			sut.ReadSlice(me, region.Add(at), got)
			for j, v := range got {
				tl.attempted.Add(1)
				if v != shadow[at+j] {
					tl.fail("onesided_small: post-run word %d = %#x, written %#x", at+j, v, shadow[at+j])
				}
			}
		}
	}
	return onesided(p, smallWords, smallWarmupOps, 100000, step, verify)
}

// OnesidedBulk is the bulk-transfer workload: WriteSlice of 32 KiB into
// a seeded slot, then ReadSlice of the same slot; a stamp word at a
// seeded position must come back. 32 KiB is deliberate: 256 KiB swung
// with memory-bandwidth contention on a shared host.
func OnesidedBulk(p Params) *Result {
	rng := rand.New(rand.NewSource(p.Seed))
	src := make([]uint64, bulkWords)
	for i := range src {
		src[i] = mix64(uint64(p.Seed) + uint64(i))
	}
	dst := make([]uint64, bulkWords)
	stamps := make([][2]uint64, bulkSlots) // per slot: stamp position and value last written
	var slot int
	step := func(me *sut.Rank, region sut.Ptr, i int, tl *tally) (kind int, name string, t0, t1 time.Time) {
		tl.attempted.Add(1)
		if i%2 == 0 {
			slot = rng.Intn(bulkSlots)
			pos, v := uint64(rng.Intn(bulkWords)), rng.Uint64()
			src[pos] = v
			stamps[slot] = [2]uint64{pos, v}
			t0 = time.Now()
			sut.WriteSlice(me, region.Add(slot*bulkWords), src)
			t1 = time.Now()
			src[pos] = mix64(uint64(p.Seed) + pos)
			return measure.KindPut, "core.WriteSlice", t0, t1
		}
		t0 = time.Now()
		sut.ReadSlice(me, region.Add(slot*bulkWords), dst)
		t1 = time.Now()
		checkSlot(dst, stamps[slot], p.Seed, slot, tl)
		return measure.KindGet, "core.ReadSlice", t0, t1
	}
	verify := func(me *sut.Rank, region sut.Ptr, tl *tally) {
		for s := 0; s < bulkSlots; s++ {
			if stamps[s] == [2]uint64{} {
				continue // never written
			}
			tl.attempted.Add(1)
			sut.ReadSlice(me, region.Add(s*bulkWords), dst)
			checkSlot(dst, stamps[s], p.Seed, s, tl)
		}
	}
	return onesided(p, bulkWords*bulkSlots, bulkWarmupOps, 60000, step, verify)
}

// checkSlot verifies a read-back slot: the stamp word, and the seeded
// fill at the first, last and one stamp-derived other position.
func checkSlot(got []uint64, stamp [2]uint64, seed int64, slot int, tl *tally) {
	ok := got[stamp[0]] == stamp[1]
	for _, pos := range []uint64{0, bulkWords - 1, (stamp[0] + stamp[1]) % bulkWords} {
		if pos != stamp[0] {
			ok = ok && got[pos] == mix64(uint64(seed)+pos)
		}
	}
	if !ok {
		tl.fail("onesided_bulk: slot %d read back wrong (stamp word %d = %#x, written %#x)", slot, stamp[0], got[stamp[0]], stamp[1])
	}
}

// ---- coll_hier ----

const (
	collRanks, collPPN = 4, 2
	collWarmupIters    = 1500
	collStopEvery      = 256
)

// collVal is rank's allgather contribution in iteration it.
func collVal(seed int64, it uint64, rank int) uint64 {
	return mix64(uint64(seed) ^ it<<8 ^ uint64(rank))
}

// CollHier is the collective workload: every rank loops World().Barrier
// then an 8-byte TeamAllGather whose result is checked against the
// seeded contributions. One operation is one collective; latency is
// sampled at rank 0, and whether to stop is broadcast every
// collStopEvery iterations so the decision costs the loop nothing.
func CollHier(p Params) *Result {
	res := &Result{}
	var tl tally
	body := func(me *sut.Rank) {
		world := me.World()
		iter := func(it uint64) (t0, t1, t2 time.Time) {
			t0 = time.Now()
			world.Barrier()
			t1 = time.Now()
			vals := sut.AllGatherU64(world, collVal(p.Seed, it, me.ID()))
			t2 = time.Now()
			tl.attempted.Add(2) // counted at every rank: four ranks check each collective
			for r, v := range vals {
				if v != collVal(p.Seed, it, r) {
					tl.fail("coll_hier: rank %d iteration %d slot %d = %#x", me.ID(), it, r, v)
					break
				}
			}
			return
		}
		var it uint64
		for ; it < uint64(p.scaled(collWarmupIters, 256)); it++ {
			iter(it)
		}
		var w *window
		var rec *measure.Recorder
		if me.ID() == 0 {
			w = p.beginWindow(res)
			rec = w.recorder(int(p.Window.Seconds()*20000), 0)
		}
		for n, done := 0, false; ; n, it = n+1, it+1 {
			if n%collStopEvery == 0 {
				stop := uint64(0)
				if done {
					stop = 1
				}
				if sut.BroadcastU64(world, stop, 0) == 1 {
					break
				}
			}
			t0, t1, t2 := iter(it)
			if me.ID() == 0 {
				k := rec.Track()
				k.End(k.Begin("team.Barrier", t0, -1, it), t1)
				k.End(k.Begin("core.TeamAllGather", t1, -1, it), t2)
				rec.Op(measure.KindPut, t0, t1, 1)
				done = rec.Op(measure.KindGet, t1, t2, 1)
			}
		}
		if me.ID() == 0 {
			w.end(res, rec)
		}
	}
	stats, err := sut.RunHierLocal(collRanks, collPPN, 1<<17, sut.Config{}, body)
	if err != nil {
		res.fail("hier job: %v", err)
	}
	res.foldCounters(stats)
	tl.into(res)
	return res
}
