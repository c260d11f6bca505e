package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/gasnet"
	"upcxx/internal/segment"
	"upcxx/internal/transport"
)

// runWireJob runs an n-rank wire job inside this process, one goroutine
// per rank with its own endpoint, segment and conduit over localhost
// TCP (the same shape as spmd.RunWireLocal, which cannot be imported
// from here without a cycle).
func runWireJob(t testing.TB, n, segBytes int, cfg Config, main func(me *Rank)) []Stats {
	t.Helper()
	stats, _ := wireJob(t, n, segBytes, cfg, false, func(me *Rank, _ []*transport.TCPEndpoint) { main(me) })
	return stats
}

// runWireJobFaulty is runWireJob for jobs in which a rank dies: the
// endpoints are handed to the body (a rank crashes by Abort on its
// own), and a rank's panic is returned instead of ending the test run.
func runWireJobFaulty(t testing.TB, n, segBytes int, cfg Config,
	main func(me *Rank, eps []*transport.TCPEndpoint)) []any {
	t.Helper()
	_, panics := wireJob(t, n, segBytes, cfg, true, main)
	return panics
}

func wireJob(t testing.TB, n, segBytes int, cfg Config, capture bool,
	main func(me *Rank, eps []*transport.TCPEndpoint)) ([]Stats, []any) {
	t.Helper()
	eps := make([]*transport.TCPEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := transport.ListenTCP(i, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	stats := make([]Stats, n)
	panics := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if capture {
				defer func() { panics[i] = recover() }()
			}
			seg := segment.New(segBytes)
			cd := gasnet.NewWireConduit(eps[i], seg, cfg.Wire(i))
			defer cd.Close()
			if err := cd.Connect(addrs, time.Time{}); err != nil {
				t.Errorf("rank %d connect: %v", i, err)
				return
			}
			stats[i] = RunWire(cfg, cd, seg, func(me *Rank) { main(me, eps) })
			cd.Goodbye()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return stats, panics
}

// aggExercise is the backend-portable Agg* workload: rank 0 writes a
// pattern into rank-1-owned elements of a cyclic shared array with
// AggPut, xors a tag on top with AggXor64, and sends counted AMs; the
// event and the barrier make everything visible, then every rank
// verifies. It returns the AM total rank `me` observed.
func aggExercise(t *testing.T, me *Rank, elems int) {
	n := me.Ranks()
	arr := NewSharedArray[uint64](me, elems, 1)
	var amSum uint64
	RegisterAMHandler(me, 40, func(tgt *Rank, from int, payload []byte) {
		amSum += uint64(payload[0]) + uint64(from)<<32
	})
	me.Barrier()

	ev := NewEvent()
	const tag = 0x5A00000000000000
	if me.ID() == 0 {
		for i := 0; i < elems; i++ {
			if arr.OwnerOf(i) == 0 {
				continue
			}
			AggPut(me, arr.Ptr(i), uint64(i)<<8, ev)
			AggXor64(me, arr.Ptr(i), tag, ev)
		}
		for k := 0; k < 10; k++ {
			AggSend(me, (k%(n-1))+1, 40, []byte{byte(k)}, ev)
		}
		ev.Wait(me)
	}
	me.Barrier()

	// Every rank verifies the elements it owns.
	for i := 0; i < elems; i++ {
		if arr.OwnerOf(i) != me.ID() || me.ID() == 0 {
			continue
		}
		if got, want := arr.Get(me, i), uint64(i)<<8^uint64(tag); got != want {
			t.Errorf("rank %d: elem %d = %#x, want %#x", me.ID(), i, got, want)
		}
	}
	var wantAM uint64
	for k := 0; k < 10; k++ {
		if (k%(n-1))+1 == me.ID() {
			wantAM += uint64(byte(k)) // all sends come from rank 0
		}
	}
	if amSum != wantAM {
		t.Errorf("rank %d: AM sum = %#x, want %#x", me.ID(), amSum, wantAM)
	}
	me.Barrier()
}

func TestAggOpsWireBackend(t *testing.T) {
	stats := runWireJob(t, 3, 1<<20, Config{}, func(me *Rank) {
		aggExercise(t, me, 96)
	})
	c := stats[0].Counters
	if c["agg_batches"] < 1 {
		t.Errorf("rank 0 shipped no aggregation batches: %v", c)
	}
	// 64 non-self puts + 64 xors + 10 AMs coalesced far below one frame
	// pair per op.
	if c["agg_ops_per_batch"] < 2 {
		t.Errorf("ops per batch = %v, want coalescing", c["agg_ops_per_batch"])
	}
	if c["wire_tx_frames_batch"] != c["agg_batches"] {
		t.Errorf("batch frames %v != batches %v", c["wire_tx_frames_batch"], c["agg_batches"])
	}
}

func TestAggOpsProcBackend(t *testing.T) {
	Run(testCfg(3), func(me *Rank) {
		aggExercise(t, me, 96)
	})
}

// TestAggFinish pins the Finish integration: aggregated ops issued in
// a Finish body are complete when Finish returns, with no explicit
// event or barrier.
func TestAggFinish(t *testing.T) {
	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wire), func(t *testing.T) {
			body := func(me *Rank) {
				var got uint64
				RegisterAMHandler(me, 41, func(tgt *Rank, from int, payload []byte) {
					got += uint64(payload[0])
				})
				v := NewSharedVar[uint64](me)
				me.Barrier()
				if me.ID() == me.Ranks()-1 {
					Finish(me, func() {
						AggPut(me, v.Ptr(), 7, nil)
						for k := 0; k < 5; k++ {
							AggSend(me, 0, 41, []byte{byte(k + 1)}, nil)
						}
					})
					// Finish returned: the put must be visible at rank 0
					// without any barrier.
					if got := Read(me, v.Ptr()); got != 7 {
						t.Errorf("AggPut not visible after Finish: %d", got)
					}
				}
				me.Barrier()
				if me.ID() == 0 && got != 1+2+3+4+5 {
					t.Errorf("rank 0 AM sum = %d, want 15", got)
				}
				me.Barrier()
			}
			if wire {
				runWireJob(t, 2, 1<<20, Config{}, body)
			} else {
				Run(testCfg(2), body)
			}
		})
	}
}

// TestAggSameDestOrdering pins per-destination FIFO: later aggregated
// ops to one destination overwrite earlier ones deterministically,
// including across a size-triggered flush boundary.
func TestAggSameDestOrdering(t *testing.T) {
	runWireJob(t, 2, 1<<20, Config{Agg: agg.Config{MaxOps: 3}}, func(me *Rank) {
		v := NewSharedVar[uint64](me)
		me.Barrier()
		if me.ID() == 1 {
			for i := 1; i <= 20; i++ { // crosses several MaxOps=3 flushes
				AggPut(me, v.Ptr(), uint64(i), nil)
			}
		}
		me.Barrier()
		if got := v.Get(me); got != 20 {
			t.Errorf("rank %d sees %d, want the last write 20", me.ID(), got)
		}
		me.Barrier()
	})
}

// TestAggRequestReplyStorm pins the reentrant-wait wake protocol: a
// rank draining its in-flight sends at a barrier keeps executing
// incoming requests, whose handlers register NEW sends with the drain
// event after its wake may already have been consumed — the event must
// re-wake the waiter on every fire or the drain sleeps forever (a
// deadlock this exact workload once triggered).
func TestAggRequestReplyStorm(t *testing.T) {
	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wire), func(t *testing.T) {
			body := func(me *Rank) {
				var answers int
				RegisterAMHandler(me, 50, func(tgt *Rank, from int, payload []byte) {
					AggSend(tgt, from, 51, payload, nil) // reply from inside the handler
				})
				RegisterAMHandler(me, 51, func(tgt *Rank, from int, payload []byte) { answers++ })
				me.Barrier()
				other := (me.ID() + 1) % me.Ranks()
				const reqs = 200
				for i := 0; i < reqs; i++ {
					AggSend(me, other, 50, []byte{1}, nil)
				}
				me.WaitUntil(func() bool { return answers == reqs })
				me.Barrier()
				me.Barrier()
			}
			if wire {
				runWireJob(t, 2, 1<<20, Config{}, body)
			} else {
				Run(testCfg(2), body)
			}
		})
	}
}

// TestAggFlushBeforeBlockingOp pins the pre-block flush: an aggregated
// op still sitting in a buffer must ship before a blocking conduit
// operation waits, because the peer able to unblock us may itself be
// waiting on that op. Here rank 1 buffers one AM (far below MaxOps)
// and then blocks acquiring a lock rank 0 holds; rank 0 releases only
// after the AM arrives — without the flush both ranks hang.
func TestAggFlushBeforeBlockingOp(t *testing.T) {
	runWireJob(t, 2, 1<<20, Config{}, func(me *Rank) {
		var sawPing bool
		RegisterAMHandler(me, 42, func(*Rank, int, []byte) { sawPing = true })
		var lk Lock
		if me.ID() == 0 {
			lk = NewLock(me)
			lk.Acquire(me)
		}
		lk = TeamBroadcast(me.World(), lk, 0)
		me.Barrier()
		if me.ID() == 0 {
			me.WaitUntil(func() bool { return sawPing })
			lk.Release(me)
		} else {
			AggSend(me, 0, 42, []byte{1}, nil) // buffered: 1 op << MaxOps
			lk.Acquire(me)                     // must flush the AM first
			lk.Release(me)
		}
		me.Barrier()
	})
}

// TestAggTrickleAppliesOnce: aggregated sends paced at a trickle, one
// per millisecond — so nearly every batch leaves by age or as a single
// op — each apply exactly once, under the static thresholds and under
// the adaptive controller, which at a trickle shrinks its batch budget
// toward one op.
func TestAggTrickleAppliesOnce(t *testing.T) {
	const ops, words = 300, 64
	val := func(i int) uint64 { return tmix(uint64(i)) | 1 }
	for _, adaptive := range []bool{false, true} {
		t.Run(fmt.Sprintf("adaptive=%v", adaptive), func(t *testing.T) {
			runWireJob(t, 2, 1<<17, Config{Agg: agg.Config{Adaptive: adaptive}}, func(me *Rank) {
				var acc [words]uint64
				got := 0
				RegisterAMHandler(me, 43, func(_ *Rank, _ int, p []byte) {
					acc[got%words] ^= binary.LittleEndian.Uint64(p)
					got++
				})
				me.Barrier()
				if me.ID() == 0 {
					pace := time.NewTicker(time.Millisecond)
					defer pace.Stop()
					var p [8]byte
					for i := 0; i < ops; i++ {
						<-pace.C
						me.Advance() // lets an aged batch leave before the next op joins it
						binary.LittleEndian.PutUint64(p[:], val(i))
						AggSend(me, 1, 43, p[:], nil)
					}
					AggDrain(me)
				}
				me.Barrier()
				if me.ID() == 1 {
					if got != ops {
						t.Errorf("applied %d sends, want %d", got, ops)
					}
					for w := range acc {
						var want uint64
						for i := w; i < ops; i += words {
							want ^= val(i)
						}
						if acc[w] != want {
							t.Errorf("word %d = %#x, want %#x", w, acc[w], want)
						}
					}
				}
			})
		})
	}
}

// TestAggHandlersRejectConcurrentMode pins the loud failure: handler
// registration in Concurrent thread mode must panic up front (handlers
// dispatch under the Concurrent-mode rank lock, so a reply AggSend
// would self-deadlock — better to refuse than to hang).
func TestAggHandlersRejectConcurrentMode(t *testing.T) {
	cfg := testCfg(1)
	cfg.Threads = Concurrent
	Run(cfg, func(me *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("RegisterAMHandler in Concurrent mode did not panic")
			}
		}()
		RegisterAMHandler(me, 60, func(*Rank, int, []byte) {})
	})
}

// TestAggFrameReduction is the tentpole's acceptance check at the core
// level: the same fine-grained update workload must cost at least 4x
// fewer wire frames with aggregation on (default batching) than off
// (MaxOps = 1, one single-op batch per update).
func TestAggFrameReduction(t *testing.T) {
	const updates = 512
	frames := func(cfg agg.Config) float64 {
		var total float64
		stats := runWireJob(t, 2, 1<<20, Config{Agg: cfg}, func(me *Rank) {
			arr := NewSharedArray[uint64](me, 64, 1)
			me.Barrier()
			if me.ID() == 0 {
				for i := 0; i < updates; i++ {
					AggXor64(me, arr.Ptr(1), uint64(i)|1, nil) // element 1 lives on rank 1
				}
			}
			me.Barrier()
		})
		for _, st := range stats {
			total += st.Counters["wire_tx_frames"]
		}
		return total
	}
	on := frames(agg.Config{})           // default MaxOps
	off := frames(agg.Config{MaxOps: 1}) // one frame pair per update
	if off < updates {
		t.Fatalf("unaggregated run sent %v frames, expected at least one per update", off)
	}
	if off < 4*on {
		t.Errorf("frame reduction %.1fx (on=%v off=%v), want >= 4x", off/on, on, off)
	}
	t.Logf("wire frames: aggregated=%v unaggregated=%v (%.1fx reduction)", on, off, off/on)
}
