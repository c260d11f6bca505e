package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/rpc"
	"upcxx/internal/transport"
)

// Test tasks are registered once per process (package init), following
// the registry's SPMD discipline; bodies get everything else through
// their POD-encoded args.

// tmix is a cheap splitmix-style finalizer for deterministic expected
// values.
func tmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

var (
	// xor mark into a cell: args [rank][off][val]
	ttMark = RegisterTask("core_test.mark", func(me *Rank, from int, args []byte) []byte {
		rank, rest := rpc.U64(args)
		off, rest := rpc.U64(rest)
		val, _ := rpc.U64(rest)
		AggXor64(me, PtrAt[uint64](int(rank), off), val, nil)
		return nil
	})

	// compute and reply: args [seed]; reply [tmix(seed ^ rank+1)]
	ttValue = RegisterTask("core_test.value", func(me *Rank, from int, args []byte) []byte {
		seed, _ := rpc.U64(args)
		return rpc.U64s(tmix(seed ^ uint64(me.ID()+1)))
	})

	// chain: args [rank][off][depth][salt]; xor a depth-tagged mark,
	// then spawn the rest of the chain on the next rank — an RPC
	// spawning an RPC, tracked transitively by the root Finish. The
	// body refers to its own Task handle, so registration happens in
	// init below rather than in this initializer.
	ttChain Task

	// read a local word and reply with it (exercises After ordering).
	ttReadCell = RegisterTask("core_test.readcell", func(me *Rank, from int, args []byte) []byte {
		rank, rest := rpc.U64(args)
		off, _ := rpc.U64(rest)
		return rpc.U64s(Read(me, PtrAt[uint64](int(rank), off)))
	})

	ttBoom = RegisterTask("core_test.boom", func(me *Rank, from int, args []byte) []byte {
		panic("boom")
	})
)

func init() {
	ttChain = RegisterTask("core_test.chain", chainBody)
}

func chainBody(me *Rank, from int, args []byte) []byte {
	rank, rest := rpc.U64(args)
	off, rest := rpc.U64(rest)
	depth, rest := rpc.U64(rest)
	salt, _ := rpc.U64(rest)
	AggXor64(me, PtrAt[uint64](int(rank), off), chainMark(salt, depth, me.ID()), nil)
	if depth > 0 {
		next := (me.ID() + 1) % me.Ranks()
		AsyncTask(me, On(next), ttChain, rpc.U64s(rank, off, depth-1, salt))
	}
	return nil
}

func chainMark(salt, depth uint64, rank int) uint64 {
	return tmix(salt<<20 + depth<<8 + uint64(rank+1))
}

// expectChain folds the marks a chain rooted at startRank with the
// given depth deposits, hopping ranks the way ttChain does.
func expectChain(n int, startRank int, depth, salt uint64) uint64 {
	var sum uint64
	r := startRank
	for d := depth; ; d-- {
		sum ^= chainMark(salt, d, r)
		if d == 0 {
			return sum
		}
		r = (r + 1) % n
	}
}

func newCell(me *Rank) GlobalPtr[uint64] {
	p := Allocate[uint64](me, me.ID(), 1)
	Write(me, p, 0)
	return p
}

func cellArgs(p GlobalPtr[uint64]) []byte {
	return rpc.U64s(uint64(p.Where()), p.Offset())
}

func TestAsyncTaskEverywhere(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		if me.ID() == 0 {
			cell := newCell(me)
			var want uint64
			Finish(me, func() {
				for r := 0; r < me.Ranks(); r++ {
					v := tmix(uint64(r) + 101)
					want ^= v
					AsyncTask(me, On(r), ttMark, append(cellArgs(cell), rpc.U64s(v)...))
				}
			})
			if got := Read(me, cell); got != want {
				t.Errorf("cell after Finish = %#x, want %#x", got, want)
			}
		}
		me.Barrier()
	})
}

func TestAsyncTaskFutureReplies(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		if me.ID() == 0 {
			futs := make([]*Future[[]byte], me.Ranks())
			for r := range futs {
				futs[r] = AsyncTaskFuture(me, r, ttValue, rpc.U64s(77))
			}
			for r, f := range futs {
				got, _ := rpc.U64(f.Get())
				if want := tmix(77 ^ uint64(r+1)); got != want {
					t.Errorf("reply from rank %d = %#x, want %#x", r, got, want)
				}
			}
		}
		me.Barrier()
	})
}

func TestAsyncTaskFutureSignalEvent(t *testing.T) {
	Run(testCfg(2), func(me *Rank) {
		if me.ID() == 0 {
			ev := NewEvent()
			f := AsyncTaskFuture(me, 1, ttValue, rpc.U64s(5), Signal(ev))
			ev.Wait(me)
			got, _ := rpc.U64(f.Get())
			if want := tmix(5 ^ 2); got != want {
				t.Errorf("reply = %#x, want %#x", got, want)
			}
		}
		me.Barrier()
	})
}

func TestTaskChainTransitiveFinish(t *testing.T) {
	const depth, salt = 9, 31
	Run(testCfg(3), func(me *Rank) {
		if me.ID() == 0 {
			cell := newCell(me)
			start := 1 % me.Ranks()
			Finish(me, func() {
				AsyncTask(me, On(start), ttChain, append(cellArgs(cell), rpc.U64s(depth, salt)...))
			})
			// Finish must have waited for the whole chain — RPCs spawned
			// by RPCs — not just the task it launched directly.
			if got, want := Read(me, cell), expectChain(me.Ranks(), start, depth, salt); got != want {
				t.Errorf("chain fold = %#x, want %#x", got, want)
			}
		}
		me.Barrier()
	})
}

func TestNestedFinishScopes(t *testing.T) {
	Run(testCfg(4), func(me *Rank) {
		if me.ID() == 0 {
			outer := newCell(me)
			inner := newCell(me)
			var wantOuter, wantInner uint64
			Finish(me, func() {
				for r := 0; r < me.Ranks(); r++ {
					v := tmix(uint64(r) + 500)
					wantOuter ^= v
					AsyncTask(me, On(r), ttMark, append(cellArgs(outer), rpc.U64s(v)...))
				}
				Finish(me, func() {
					for r := 0; r < me.Ranks(); r++ {
						v := tmix(uint64(r) + 900)
						wantInner ^= v
						AsyncTask(me, On(r), ttMark, append(cellArgs(inner), rpc.U64s(v)...))
					}
				})
				// The inner scope has drained even though the outer one
				// is still open.
				if got := Read(me, inner); got != wantInner {
					t.Errorf("inner cell inside outer Finish = %#x, want %#x", got, wantInner)
				}
			})
			if got := Read(me, outer); got != wantOuter {
				t.Errorf("outer cell = %#x, want %#x", got, wantOuter)
			}
		}
		me.Barrier()
	})
}

func TestAsyncTaskAfterOrdering(t *testing.T) {
	Run(testCfg(3), func(me *Rank) {
		if me.ID() == 0 {
			cell := newCell(me) // written by t1, read by t2
			mark := tmix(4242)
			e1 := NewEvent()
			var seen atomic.Uint64
			Finish(me, func() {
				AsyncTask(me, On(1%me.Ranks()), ttMark,
					append(cellArgs(cell), rpc.U64s(mark)...), Signal(e1))
				// t2 launches only after e1 fired, i.e. after t1's body
				// ran; it reads the cell and replies with what it saw.
				AsyncAfter(me, On(2%me.Ranks()), e1, nil, func(tgt *Rank) {
					seen.Store(Read(tgt, cell))
				})
			})
			if got := seen.Load(); got != mark {
				t.Errorf("dependent task saw %#x, want %#x", got, mark)
			}
		}
		me.Barrier()
	})
}

func TestAsyncTaskFutureAfterDependency(t *testing.T) {
	Run(testCfg(3), func(me *Rank) {
		if me.ID() == 0 {
			cell := newCell(me)
			mark := tmix(777)
			e1 := NewEvent()
			Finish(me, func() {
				AsyncTask(me, On(1), ttMark,
					append(cellArgs(cell), rpc.U64s(mark)...), Signal(e1))
				// Deferred behind e1: the reader must observe t1's mark.
				f := AsyncTaskFuture(me, 2, ttReadCell, cellArgs(cell), After(e1))
				got, _ := rpc.U64(f.Get())
				if got != mark {
					t.Errorf("dependent future read %#x, want %#x", got, mark)
				}
			})
		}
		me.Barrier()
	})
}

func TestAsyncTaskPanicCarriesCause(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("panicking task should abort the job")
			}
			msg := p.(error).Error()
			for _, want := range []string{"core_test.boom", "boom", "rank 0"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic cause %q should mention %q", msg, want)
				}
			}
		}()
		// Self-targeted launch executes inline, so the wrapped panic
		// propagates synchronously to this goroutine.
		AsyncTask(me, On(0), ttBoom, nil)
	})
}

func TestUnknownTaskIndexPanics(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("unregistered task index should panic")
			}
			if msg := p.(error).Error(); !strings.Contains(msg, "same order") {
				t.Errorf("panic %q should explain the registration discipline", msg)
			}
		}()
		me.engineTask(me, 0, me.Clock(), 0xFFFF, nil, &asyncCfg{}, nil, nil)
	})
}

func TestZeroTaskRejectedAtLaunch(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("AsyncTask with the zero Task should panic")
			}
		}()
		AsyncTask(me, On(0), Task{}, nil)
	})
}

func TestReservedAMHandlerIDRejected(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("registering a reserved AM handler id should panic")
			}
		}()
		RegisterAMHandler(me, amRPCReq, func(*Rank, int, []byte) {})
	})
}

// ---- Wire protocol: counted done-acks ----

// stormEpoch is one rank's share of an RPC storm epoch on a 2-rank
// wire job: a Finish over n ttMark launches at the peer (24 bytes of
// arguments built in one reused buffer; the executor xors into its own
// cell), then a barrier — after which the peer's Finish has returned
// too. It returns the fold of the values sent.
func stormEpoch(me *Rank, peerCell GlobalPtr[uint64], n int, salt uint64, args []byte) uint64 {
	var sent uint64
	at := On(1 - me.ID())
	Finish(me, func() {
		for i := 0; i < n; i++ {
			v := tmix(salt + uint64(i))
			sent ^= v
			args = rpc.AppendU64(rpc.AppendU64(rpc.AppendU64(args[:0], uint64(peerCell.Where())), peerCell.Offset()), v)
			AsyncTask(me, at, ttMark, args)
		}
	})
	me.Barrier()
	return sent
}

// stormJob runs body on both ranks of a 2-rank adaptive-aggregation
// wire job with the storm's cells set up; body returns the fold of
// what it sent, which the peer's cell must equal afterwards.
func stormJob(t testing.TB, body func(me *Rank, peerCell GlobalPtr[uint64]) uint64) {
	var sent [2]atomic.Uint64
	runWireJob(t, 2, 1<<17, Config{Agg: agg.Config{Adaptive: true}}, func(me *Rank) {
		cells := TeamAllGather(me.World(), newCell(me))
		me.Barrier()
		sent[me.ID()].Store(body(me, cells[1-me.ID()]))
		me.Barrier()
		if got, want := Read(me, cells[me.ID()]), sent[1-me.ID()].Load(); got != want {
			t.Errorf("rank %d cell = %#x, fold of the peer's RPCs %#x", me.ID(), got, want)
		}
	})
}

// TestBatchingReducesFrames: every rank storms its right neighbour with
// RPCs under one Finish, once with the aggregation plane coalescing
// requests and done-acks and once with every message a batch of its
// own (MaxOps 1). Both leave the same marks in every cell, and batched
// an RPC costs at least 2x fewer wire frames — the realized ratio is
// far larger, but age flushes on a stalled machine can pad a few.
func TestBatchingReducesFrames(t *testing.T) {
	const n, rpcs = 2, 1024
	mark := func(rank, i int) uint64 { return tmix(uint64(rank)<<32 + uint64(i)) }
	run := func(cfg agg.Config) (cells [n]uint64, framesPerRPC, opsPerBatch float64) {
		stats := runWireJob(t, n, 1<<17, Config{Agg: cfg}, func(me *Rank) {
			dir := TeamAllGather(me.World(), newCell(me))
			me.Barrier()
			target := (me.ID() + 1) % n
			Finish(me, func() {
				for i := 0; i < rpcs; i++ {
					AsyncTask(me, On(target), ttMark, append(cellArgs(dir[target]), rpc.U64s(mark(me.ID(), i))...))
				}
			})
			me.Barrier()
			var want uint64
			for i := 0; i < rpcs; i++ {
				want ^= mark((me.ID()+n-1)%n, i)
			}
			if cells[me.ID()] = Read(me, dir[me.ID()]); cells[me.ID()] != want {
				t.Errorf("rank %d cell = %#x, want %#x (%+v)", me.ID(), cells[me.ID()], want, cfg)
			}
			me.Barrier()
		})
		var frames, batches, ops float64
		for _, st := range stats {
			frames += st.Counters["wire_tx_frames"]
			batches += st.Counters["agg_batches"]
			ops += st.Counters["agg_ops"]
		}
		return cells, frames / (n * rpcs), ops / batches
	}
	onCells, on, opsPerBatch := run(agg.Config{})
	offCells, off, _ := run(agg.Config{MaxOps: 1})
	if onCells != offCells {
		t.Fatalf("cells differ: batched %#x, unbatched %#x", onCells, offCells)
	}
	if on*2 > off {
		t.Errorf("batched RPCs cost %.3f frames each vs %.3f unbatched; want >= 2x reduction", on, off)
	}
	if opsPerBatch <= 1 {
		t.Errorf("batched ops/batch = %.2f, want > 1", opsPerBatch)
	}
	t.Logf("frames/RPC: batched %.3f, unbatched %.3f; ops/batch %.1f", on, off, opsPerBatch)
}

// BenchmarkAsyncTaskWire is the layer benchmark of the registered-task
// wire path: one op is one RPC issued, executed at the peer and
// acknowledged, both ranks storming each other in epochs of 10,000
// under one Finish each (so ns/op covers two RPCs' worth of work on a
// box with fewer than two idle cores). scopes/op is how many task
// scopes rank 0's executor took per RPC it ran: the storm's bodies are
// leaves, which take none. B/rpc is rank 0's encoded batch bytes per
// aggregated op over the timed region: framing plus the 24 bytes of
// arguments, and the done-acks as ops of their own.
func BenchmarkAsyncTaskWire(b *testing.B) {
	const perEpoch = 10000
	b.ReportAllocs()
	stormJob(b, func(me *Rank, peerCell GlobalPtr[uint64]) (sent uint64) {
		args := make([]byte, 0, 24)
		sent ^= stormEpoch(me, peerCell, perEpoch, 1<<40, args) // warm pools, free lists, the controller
		scopes0 := me.scopesTaken.Load()
		agg0 := me.agg.Counters()
		if me.ID() == 0 {
			b.ResetTimer()
		}
		for done, epoch := 0, uint64(0); done < b.N; done, epoch = done+perEpoch, epoch+1 {
			sent ^= stormEpoch(me, peerCell, min(perEpoch, b.N-done), epoch<<32, args)
		}
		if me.ID() == 0 {
			b.StopTimer()
			b.ReportMetric(float64(me.scopesTaken.Load()-scopes0)/float64(b.N), "scopes/op")
			agg1 := me.agg.Counters()
			b.ReportMetric((agg1["agg_batch_bytes"]-agg0["agg_batch_bytes"])/(agg1["agg_ops"]-agg0["agg_ops"]), "B/rpc")
		}
		return sent
	})
}

// BenchmarkAsyncTaskWireJobs is BenchmarkAsyncTaskWire as a mode-split
// detector: the same storm on eight 2-rank jobs built one after another
// in this process, each with a heap layout of its own, b.N RPCs per
// rank and job. A job's figure is the lower quartile of its epochs'
// ns/op — a layout-decided mode slows every epoch of a job, a noisy
// neighbour on the machine only some — ns/op is the median job's, and
// max/min is the slowest job's figure over the fastest's. While ranks'
// per-operation words could share cache lines that ratio was 1.5-1.9,
// decided per job by where the allocator happened to put them; the CI
// leg fails it above 1.35.
func BenchmarkAsyncTaskWireJobs(b *testing.B) {
	const jobs, perEpoch = 8, 10000
	nsPerOp := make([]float64, jobs)
	for j := range nsPerOp {
		stormJob(b, func(me *Rank, peerCell GlobalPtr[uint64]) (sent uint64) {
			args := make([]byte, 0, 24)
			sent ^= stormEpoch(me, peerCell, perEpoch, 1<<40, args)
			epochs := make([]float64, 0, b.N/perEpoch+1)
			for done, epoch := 0, uint64(0); done < b.N; done, epoch = done+perEpoch, epoch+1 {
				n, t0 := min(perEpoch, b.N-done), time.Now()
				sent ^= stormEpoch(me, peerCell, n, epoch<<32, args)
				epochs = append(epochs, float64(time.Since(t0).Nanoseconds())/float64(n))
			}
			if me.ID() == 0 {
				sort.Float64s(epochs)
				nsPerOp[j] = epochs[len(epochs)/4]
			}
			return sent
		})
	}
	sort.Float64s(nsPerOp)
	b.Logf("ns/op by job: %.0f", nsPerOp)
	b.ReportMetric(nsPerOp[jobs/2], "ns/op")
	b.ReportMetric(nsPerOp[jobs-1]/nsPerOp[0], "max/min")
}

// openScope is the first half of Finish — run body under a fresh scope
// and hand the scope back undrained — for tests that wait on it with a
// predicate of their own. The caller ends with me.doneDrop(fs).
func openScope(me *Rank, body func()) *finishScope {
	fs := &finishScope{owner: me}
	me.finish = append(me.finish, finishEntry{fs: fs})
	body()
	me.finish = me.finish[:len(me.finish)-1]
	return fs
}

// ttFan is the transitive-finish workload: args [rank][off][depth][salt].
// The body xors a mark into the root's cell with an aggregated op — so
// its scope drains later, from a batch acknowledgement, outside batch
// application — and spawns two children one level down on the next two
// ranks. Registered in init: the body names its own handle.
var ttFan Task

func init() { ttFan = RegisterTask("core_test.fan", fanBody) }

func fanBody(me *Rank, from int, args []byte) []byte {
	rank, rest := rpc.U64(args)
	off, rest := rpc.U64(rest)
	depth, rest := rpc.U64(rest)
	salt, _ := rpc.U64(rest)
	AggXor64(me, PtrAt[uint64](int(rank), off), chainMark(salt, depth, me.ID()), nil)
	for k := uint64(1); depth > 0 && k <= 2; k++ {
		next := (me.ID() + int(k)) % me.Ranks()
		AsyncTask(me, On(next), ttFan, rpc.U64s(rank, off, depth-1, salt*2+k))
	}
	return nil
}

// expectFan folds the marks of the tree fanBody grows from one task.
func expectFan(n, rank int, depth, salt uint64) uint64 {
	sum := chainMark(salt, depth, rank)
	for k := uint64(1); depth > 0 && k <= 2; k++ {
		sum ^= expectFan(n, (rank+int(k))%n, depth-1, salt*2+k)
	}
	return sum
}

// TestCountedAcksTransitiveFinish: a Finish over RPCs that spawn RPCs
// and issue aggregated ops drains exactly once under counted acks —
// every mark of every tree is in the cell when it returns, no scope id
// or owed ack is left behind on any rank, and no rank ever enters a
// blocking wait holding an unsent ack (a scope drained outside batch
// application must ack at once).
func TestCountedAcksTransitiveFinish(t *testing.T) {
	const n, roots, depth, rounds = 3, 40, 4, 3
	const stopAM = 41
	runWireJob(t, n, 1<<17, Config{Agg: agg.Config{Adaptive: true}}, func(me *Rank) {
		stop := false
		RegisterAMHandler(me, stopAM, func(*Rank, int, []byte) { stop = true })
		cell := newCell(me)
		me.Barrier()
		// wait is waitProgress with the invariant checked wherever the
		// rank is about to block.
		wait := func(pred func() bool) {
			me.waitProgress(func() bool {
				if me.ackN != 0 {
					t.Errorf("rank %d blocks with %d done-acks unsent", me.ID(), me.ackN)
				}
				return pred()
			})
		}
		if me.ID() == 0 {
			var want uint64
			for round := uint64(0); round < rounds; round++ {
				// Finish, spelled out so the wait can carry the check.
				fs := openScope(me, func() {
					for i := uint64(0); i < roots; i++ {
						target, salt := int(i)%n, round<<16+i<<8
						want ^= expectFan(n, target, depth, salt)
						AsyncTask(me, On(target), ttFan, append(cellArgs(cell), rpc.U64s(depth, salt)...))
					}
				})
				wait(fs.empty)
				me.doneDrop(fs)
				if got := Read(me, cell); got != want {
					t.Fatalf("round %d: cell = %#x after Finish, want %#x", round, got, want)
				}
				if left := fs.outstanding.Load(); left != 0 {
					t.Errorf("round %d: scope count %d after drain", round, left)
				}
			}
			for r := 1; r < n; r++ {
				AggSend(me, r, stopAM, nil, nil)
			}
		} else {
			wait(func() bool { return stop })
		}
		me.Barrier()
		if len(me.doneTab) != 0 || me.ackN != 0 || me.applying {
			t.Errorf("rank %d left %d scope ids, %d owed acks, applying=%v",
				me.ID(), len(me.doneTab), me.ackN, me.applying)
		}
	})
}

// ttNest is a task whose body blocks: args [rank][off][depth][salt]. It
// xors a mark into the root's cell and then, above depth 0, runs a
// Finish of its own over one child sent back to its caller — so the
// body sits in waitProgress, inside batch application, while the child's
// subtree and its own aggregated op are acknowledged.
var ttNest Task

func init() { ttNest = RegisterTask("core_test.nest", nestBody) }

func nestBody(me *Rank, from int, args []byte) []byte {
	rank, rest := rpc.U64(args)
	off, rest := rpc.U64(rest)
	depth, rest := rpc.U64(rest)
	salt, _ := rpc.U64(rest)
	AggXor64(me, PtrAt[uint64](int(rank), off), chainMark(salt, depth, me.ID()), nil)
	if depth > 0 {
		Finish(me, func() {
			AsyncTask(me, On(from), ttNest, rpc.U64s(rank, off, depth-1, salt))
		})
	}
	return nil
}

// TestCountedAcksBlockingBody: task bodies that block in a nested Finish
// keep the rank inside batch application while scopes drain from batch
// acknowledgements; the acks those scopes owe must still ship, or the
// Finish two levels up waits forever. Each rank roots ping-pong chains
// of blocking bodies against its peer, all in flight at once.
func TestCountedAcksBlockingBody(t *testing.T) {
	const roots, depth = 6, 3
	runWireJob(t, 2, 1<<17, Config{Agg: agg.Config{Adaptive: true}}, func(me *Rank) {
		cell := newCell(me)
		me.Barrier()
		peer := 1 - me.ID()
		var want uint64
		Finish(me, func() {
			for i := uint64(0); i < roots; i++ {
				salt := uint64(me.ID()+1)<<16 + i
				for d, r := uint64(depth), peer; ; d, r = d-1, 1-r {
					want ^= chainMark(salt, d, r)
					if d == 0 {
						break
					}
				}
				AsyncTask(me, On(peer), ttNest, append(cellArgs(cell), rpc.U64s(depth, salt)...))
			}
		})
		if got := Read(me, cell); got != want {
			t.Errorf("rank %d cell = %#x after Finish over blocking bodies, want %#x", me.ID(), got, want)
		}
		me.Barrier()
		if len(me.doneTab) != 0 || me.ackN != 0 || me.applying {
			t.Errorf("rank %d left %d scope ids, %d owed acks, applying=%v",
				me.ID(), len(me.doneTab), me.ackN, me.applying)
		}
	})
}

// ttHold spawns a child on rank 2, so its own scope stays open until
// rank 2 runs it: args are passed through to ttMark.
var ttHold = RegisterTask("core_test.hold", func(me *Rank, from int, args []byte) []byte {
	AsyncTask(me, On(2), ttMark, args)
	return nil
})

// TestCountedAcksExecutorDeath: on a resilient 3-rank job rank 1
// executes a mix of tasks for rank 0 — quick ones, which it
// acknowledges with counted acks, and held ones, whose subtrees hang
// on rank 2 (parked outside the runtime) — and then crashes. Rank 0
// must have been credited exactly the quick tasks before the crash,
// and the death sweep must restore exactly the held ones: the scope
// lands on zero, neither short (a hang) nor over-credited (negative).
func TestCountedAcksExecutorDeath(t *testing.T) {
	const quick, held = 300, 7
	const dieAM = 42
	cfg := Config{Resilient: true, HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 10 * time.Second}
	release := make(chan struct{}) // rank 0 lets rank 2 back into the runtime
	var atDeath, atEnd atomic.Int64
	atDeath.Store(-1)
	atEnd.Store(-1)
	panics := runWireJobFaulty(t, 3, 1<<17, cfg, func(me *Rank, eps []*transport.TCPEndpoint) {
		died := false
		RegisterAMHandler(me, dieAM, func(me *Rank, _ int, _ []byte) {
			eps[me.ID()].Abort()
			died = true
		})
		cell := newCell(me)
		me.Barrier()
		switch me.ID() {
		case 1:
			me.waitProgress(func() bool { return died })
		case 2:
			<-release
		case 0:
			defer close(release)
			args := append(cellArgs(cell), rpc.U64s(1)...)
			fs := openScope(me, func() {
				for i := 0; i < quick+held; i++ {
					task := ttMark
					if i%(quick/held) == 1 && i/(quick/held) < held {
						task = ttHold
					}
					AsyncTask(me, On(1), task, args)
				}
			})
			deadline := time.Now().Add(10 * time.Second)
			me.waitProgress(func() bool {
				return fs.outstanding.Load() <= held || time.Now().After(deadline)
			})
			atDeath.Store(fs.outstanding.Load())
			if owed := me.remoteSlots[1][fs]; owed != held {
				t.Errorf("rank 1 still owes %d acks by rank 0's books, want %d", owed, held)
			}
			AggSend(me, 1, dieAM, nil, nil)
			me.waitProgress(func() bool {
				return (!me.RankAlive(1) && fs.outstanding.Load() <= 0) || time.Now().After(deadline)
			})
			atEnd.Store(fs.outstanding.Load())
			if len(me.remoteSlots[1]) != 0 {
				t.Errorf("death sweep left debts on the books: %v", me.remoteSlots[1])
			}
			me.doneDrop(fs)
		}
	})
	for _, r := range []int{0, 2} {
		if panics[r] != nil {
			t.Errorf("survivor rank %d panicked: %v", r, panics[r])
		}
	}
	if got := atDeath.Load(); got != held {
		t.Errorf("scope held %d credits before the crash, want the %d held tasks", got, held)
	}
	if got := atEnd.Load(); got != 0 {
		t.Errorf("scope count %d after the death sweep, want 0", got)
	}
}

// TestDoneAckOverdrawRejected: a counted ack for more tasks than the
// scope still holds is protocol corruption, like an ack for an unknown
// scope: it is rejected with an error naming the count (the conduit
// then severs its sender) and credits nothing.
func TestDoneAckOverdrawRejected(t *testing.T) {
	Run(testCfg(1), func(me *Rank) {
		fs := &finishScope{owner: me}
		fs.add(2)
		id := me.doneIDFor(fs)
		if err := me.creditDone(0, rpc.AppendDone(nil, id, 2)); err != nil || !fs.empty() {
			t.Fatalf("a 2-count ack for 2 tasks: error %v, scope holds %d", err, fs.outstanding.Load())
		}
		fs.add(1)
		err := me.creditDone(0, rpc.AppendDone(nil, id, 3))
		if err == nil || !strings.Contains(err.Error(), "credits 3") {
			t.Errorf("overdrawing ack: %v, want an error naming the count", err)
		}
		if err := me.creditDone(0, rpc.AppendDone(nil, id+1, 1)); err == nil {
			t.Error("an ack for an unknown scope was accepted")
		}
		if got := fs.outstanding.Load(); got != 1 {
			t.Errorf("scope holds %d after the rejected acks, want 1", got)
		}
	})
}

// lateTasks numbers the tasks TestRegisterTaskWhileResolving adds, so
// repeated runs in one process (-count) never reuse a name.
var lateTasks atomic.Int64

// TestRegisterTaskWhileResolving: RegisterTask from one goroutine
// while rank goroutines execute (and so resolve) tasks — the registry
// is process-global and in-process jobs share it (run under -race).
func TestRegisterTaskWhileResolving(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			RegisterTask(fmt.Sprint("core_test.late.", lateTasks.Add(1)),
				func(*Rank, int, []byte) []byte { return nil })
		}
	}()
	Run(testCfg(4), func(me *Rank) {
		cell := newCell(me)
		var want uint64
		Finish(me, func() {
			for i := 0; i < 200; i++ {
				v := tmix(uint64(me.ID())<<20 + uint64(i))
				want ^= v
				AsyncTask(me, On(i%me.Ranks()), ttMark, append(cellArgs(cell), rpc.U64s(v)...))
			}
		})
		if got := Read(me, cell); got != want {
			t.Errorf("rank %d cell = %#x, want %#x", me.ID(), got, want)
		}
		me.Barrier()
	})
	wg.Wait()
}

// ---- The task panic guard ----

// TestLeafTaskScopeRemotePanic is TestLeafTaskScope's panic case for a
// body run on another rank's behalf: a batch application on a wire
// conduit and an engine delivery in-process each re-raise the body's
// panic naming the task and its route, and leave the finish stack as
// they found it; a panicking AM handler outside any task passes through
// the batch guard untouched.
func TestLeafTaskScopeRemotePanic(t *testing.T) {
	want := `upcxx: task "core_test.boom" from rank 0 panicked on rank 1: boom`
	t.Run("tcp", func(t *testing.T) {
		p := newTaskPair(t, 64)
		defer p.stop()
		const rawAM = fuzzAM + 1
		RegisterAMHandler(p.me, rawAM, func(*Rank, int, []byte) { panic("raw") })
		var batches [][]byte
		enc := agg.New(2, agg.Config{}, func(_ int, batch []byte, _ int, done func()) {
			batches = append(batches, append([]byte(nil), batch...))
			done()
		})
		enc.SendParts(1, amRPCReq, rpc.AppendRequest(nil, ttBoom.Index(), 0, 0, 0, nil), nil, nil)
		enc.Flush(1)
		enc.Send(1, rawAM, nil, nil)
		enc.Flush(1)
		for i, wantPanic := range []string{want, "raw"} {
			depth := len(p.me.finish)
			got := func() (r any) {
				defer func() { r = recover() }()
				return p.deliver(batches[i])
			}()
			if fmt.Sprint(got) != wantPanic {
				t.Errorf("batch %d panicked with %v, want %s", i, got, wantPanic)
			}
			if len(p.me.finish) != depth {
				t.Errorf("batch %d left the finish stack %d deep, found %d deep", i, len(p.me.finish), depth)
			}
		}
	})
	t.Run("proc", func(t *testing.T) {
		Run(testCfg(2), func(me *Rank) {
			if me.ID() == 0 {
				AsyncTask(me, On(1), ttBoom, nil)
			} else {
				var got any
				for got == nil {
					func() {
						defer func() { got = recover() }()
						me.Advance()
					}()
				}
				if fmt.Sprint(got) != want || len(me.finish) != 0 {
					t.Errorf("panic %v with the finish stack %d deep, want %s and empty", got, len(me.finish), want)
				}
			}
			me.Barrier()
		})
	})
}
