package spmd

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/core"
	"upcxx/internal/dht"
	"upcxx/internal/obs"
	"upcxx/internal/rpc"
	"upcxx/internal/transport"
)

// Aggregated AM ids of the reply tests: amAsk asks its target for
// answers (payload [mode][k]), amSeq is one answer carrying its
// sequence number, amReady tells the asker a replier is set.
const (
	amAsk   uint16 = 0x50
	amSeq   uint16 = 0x51
	amReady uint16 = 0x52
)

// Answer modes: k plain answers (no completion: they ride the ask's
// ack), or an answer tracked by the replier's event followed by a plain
// one (the whole buffer ships as a batch).
const (
	askPlain byte = iota
	askEvent
)

// replySeq is a registered task whose body answers its caller with one
// amSeq, issued inside the task's implicit finish scope.
var replySeq = core.RegisterTask("spmd_test.reply.seq", func(me *core.Rank, from int, args []byte) []byte {
	core.AggSend(me, from, amSeq, args, nil)
	return nil
})

// replyRig is one rank's side of a reply test: the sequence each
// sender's answers must arrive in, and the asks this rank has served.
type replyRig struct {
	next  map[int]uint64 // sender -> next expected sequence number
	bad   error          // first answer out of order
	asked int
	ready int         // amReady messages received
	ev    *core.Event // the replier's event for askEvent answers
}

func newReplyRig(me *core.Rank) *replyRig {
	g := &replyRig{next: map[int]uint64{}, ev: core.NewEvent()}
	core.RegisterAMHandler(me, amSeq, func(_ *core.Rank, from int, p []byte) {
		if seq := binary.LittleEndian.Uint64(p); seq != g.next[from] && g.bad == nil {
			g.bad = fmt.Errorf("answer %d from rank %d arrived when %d was due", seq, from, g.next[from])
		}
		g.next[from]++
	})
	core.RegisterAMHandler(me, amReady, func(*core.Rank, int, []byte) { g.ready++ })
	core.RegisterAMHandler(me, amAsk, func(me *core.Rank, from int, p []byte) {
		g.asked++
		switch p[0] {
		case askPlain:
			for i := 0; i < int(p[1]); i++ {
				core.AggSend(me, from, amSeq, rpc.U64s(uint64(i)), nil)
			}
		case askEvent:
			core.AggSend(me, from, amSeq, rpc.U64s(0), g.ev)
			core.AggSend(me, from, amSeq, rpc.U64s(1), nil)
		}
	})
	me.Barrier()
	return g
}

// counter reads one of rank's live counters from the metrics registry.
func counter(name string, rank int) int64 {
	return obs.Reg().Snapshot()[fmt.Sprintf("%s{rank=%d}", name, rank)]
}

// TestReplyRidesAck pins the batch plane's request/reply rule on the
// flat wire and on the hierarchical 2x2 topology, where rank 0's
// repliers are rank 1 over the shm ring and rank 2 over the wire:
//
//   - order: a handler's completion-free answers ride the ask's ack, and
//     ops to the same destination keep their issue order across that
//     reply and the batch that follows it;
//   - event, finish, task: an answer that carries a completion — an
//     *Event, the replier's Finish, a task's implicit scope — does not
//     ride the ack; the buffer ships as a batch and completes when that
//     batch is acked;
//   - drain: the asker has applied the reply by the time its AggDrain
//     returns (the barrier's visibility rule).
//
// Rank 0 checks the repliers' counters: the job's ranks share this
// process's metrics registry, and they move only in answer to rank 0.
// The dying-replier case is TestReplyLostWithDeadReplier.
func TestReplyRidesAck(t *testing.T) {
	const k = 5
	cfg := core.Config{Agg: agg.Config{MaxAge: time.Hour}} // batches ship only where the program says
	peers := []int{1, 2}
	// snapshot reads counter name on each replier; expect checks how
	// far it has moved since.
	snapshot := func(name string) map[int]int64 {
		m := map[int]int64{}
		for _, p := range peers {
			m[p] = counter(name, p)
		}
		return m
	}
	expect := func(t *testing.T, name string, snap map[int]int64, want int64) {
		for _, p := range peers {
			if got := counter(name, p) - snap[p]; got != want {
				t.Errorf("rank %d: %s grew by %d, want %d", p, name, got, want)
			}
		}
	}
	answered := func(g *replyRig, n uint64) func() bool {
		return func() bool { return g.next[1] == n && g.next[2] == n }
	}
	for _, topo := range []struct {
		name string
		run  func(main func(me *core.Rank)) error
	}{
		{"tcp", func(main func(me *core.Rank)) error {
			_, err := RunWireLocal(4, 1<<16, cfg, main)
			return err
		}},
		{"hier-2x2", func(main func(me *core.Rank)) error {
			_, err := RunHierLocal(4, 2, 1<<16, cfg, main)
			return err
		}},
	} {
		for _, tc := range []struct {
			name string
			// asker runs on rank 0, replier on ranks 1 and 2; both end in
			// the closing barrier.
			asker   func(t *testing.T, me *core.Rank, g *replyRig)
			replier func(me *core.Rank, g *replyRig)
		}{
			{"order", func(t *testing.T, me *core.Rank, g *replyRig) {
				replies := snapshot("agg_ack_replies")
				for _, p := range peers {
					core.AggSend(me, p, amAsk, []byte{askPlain, k}, nil)
				}
				me.WaitUntil(answered(g, 2*k))
				expect(t, "agg_ack_replies", replies, 1)
			}, func(me *core.Rank, g *replyRig) {
				me.WaitUntil(func() bool { return g.asked == 1 })
				for i := k; i < 2*k; i++ {
					core.AggSend(me, 0, amSeq, rpc.U64s(uint64(i)), nil)
				}
				core.AggFlush(me)
			}},
			{"event", func(t *testing.T, me *core.Rank, g *replyRig) {
				replies, batches := snapshot("agg_ack_replies"), snapshot("agg_batches")
				for _, p := range peers {
					core.AggSend(me, p, amAsk, []byte{askEvent, 0}, nil)
				}
				me.WaitUntil(answered(g, 2))
				expect(t, "agg_ack_replies", replies, 0)
				expect(t, "agg_batches", batches, 1)
			}, func(me *core.Rank, g *replyRig) {
				me.WaitUntil(func() bool { return g.asked == 1 })
				g.ev.Wait(me) // fires on the answer batch's ack
			}},
			{"finish", func(t *testing.T, me *core.Rank, g *replyRig) {
				me.WaitUntil(func() bool { return g.ready == len(peers) })
				replies, batches := snapshot("agg_ack_replies"), snapshot("agg_batches")
				for _, p := range peers {
					core.AggSend(me, p, amAsk, []byte{askPlain, 1}, nil)
				}
				me.WaitUntil(answered(g, 1))
				expect(t, "agg_ack_replies", replies, 0)
				expect(t, "agg_batches", batches, 1)
			}, func(me *core.Rank, g *replyRig) {
				// The answer runs inside this Finish, which waits for its ack;
				// the ask leaves only once the replier is in it.
				core.Finish(me, func() {
					core.AggSend(me, 0, amReady, nil, nil)
					me.WaitUntil(func() bool { return g.asked == 1 })
				})
			}},
			{"task", func(t *testing.T, me *core.Rank, g *replyRig) {
				replies, batches := snapshot("agg_ack_replies"), snapshot("agg_batches")
				core.Finish(me, func() {
					for _, p := range peers {
						core.AsyncTask(me, core.On(p), replySeq, rpc.U64s(0))
					}
				})
				// The task's done-ack leaves only once its answer is acked:
				// the answer batch, then the done-ack's.
				if g.next[1] != 1 || g.next[2] != 1 {
					t.Errorf("Finish returned with answers %v applied, want one from each of %v", g.next, peers)
				}
				expect(t, "agg_ack_replies", replies, 0)
				expect(t, "agg_batches", batches, 2)
			}, func(*core.Rank, *replyRig) {}},
			{"drain", func(t *testing.T, me *core.Rank, g *replyRig) {
				for _, p := range peers {
					core.AggSend(me, p, amAsk, []byte{askPlain, k}, nil)
				}
				core.AggDrain(me)
				if !answered(g, k)() {
					t.Errorf("AggDrain returned with answers %v applied, want %d from each of %v", g.next, k, peers)
				}
			}, func(me *core.Rank, g *replyRig) {
				me.WaitUntil(func() bool { return g.asked == 1 })
			}},
		} {
			t.Run(topo.name+"/"+tc.name, func(t *testing.T) {
				err := topo.run(func(me *core.Rank) {
					g := newReplyRig(me)
					switch me.ID() {
					case 0:
						tc.asker(t, me, g)
						if g.bad != nil {
							t.Error(g.bad)
						}
					case 1, 2:
						tc.replier(me, g)
					}
					me.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestReplyLostWithDeadReplier: an ack carrying a reply from a rank
// that dies before it arrives completes its batch as lost, like any
// batch to a dead rank — the asker's event fires and the reply is never
// applied. The fault plan drops rank 1's first ack to rank 0 (handler 1
// = wire hReply); rank 1 then dies.
func TestReplyLostWithDeadReplier(t *testing.T) {
	cfg := core.Config{
		Agg:               agg.Config{MaxAge: time.Hour},
		Fault:             mustPlan(t, "drop:rank=1,peer=0,handler=1,op=1"),
		HeartbeatInterval: time.Minute, // death arrives as the connection's loss, not a probe
		HeartbeatTimeout:  time.Minute,
	}
	var answers uint64
	alive := true
	panics := runWireFaulty(t, 2, 1<<16, cfg, func(me *core.Rank, eps []*transport.TCPEndpoint) {
		g := newReplyRig(me)
		if me.ID() == 1 {
			before := counter("agg_ack_replies", 1)
			me.WaitUntil(func() bool { return g.asked == 1 })
			if got := counter("agg_ack_replies", 1) - before; got != 1 {
				t.Errorf("rank 1: %d acks carried a reply, want 1", got)
			}
			eps[1].Abort()
			return
		}
		ev := core.NewEvent()
		core.AggSend(me, 1, amAsk, []byte{askPlain, 3}, ev)
		ev.Wait(me)
		answers, alive = g.next[1], me.RankAlive(1)
	})
	if panics[0] != nil {
		t.Fatalf("rank 0 panicked: %v", panics[0])
	}
	if alive || answers != 0 {
		t.Errorf("ask completed with rank 1 alive %v and %d answers applied; want it lost to rank 1's death, none applied",
			alive, answers)
	}
}

// TestK2GetFrames: a lookup on a K=2 read-repair table — the gateway's
// GET — costs exactly 2 frames per remote replica: the probe's batch,
// and its ack carrying the answer. Counted over every rank's batch and
// ack frames while rank 0's lookup runs; nothing follows it, because a
// reply is never acknowledged.
func TestK2GetFrames(t *testing.T) {
	const n = 3
	capacity := dht.DefaultCapacity(64)
	frames := func() (f int64) {
		for r := 0; r < n; r++ {
			f += counter("wire_tx_frames_batch", r) + counter("wire_tx_frames_reply", r)
		}
		return f
	}
	_, err := RunWireLocal(n, dht.SegBytes(capacity), core.Config{}, func(me *core.Rank) {
		tbl := dht.NewWithConfig(me, capacity, dht.Config{Replicas: 2, ReadRepair: true})
		key := uint64(1)
		for rs := dht.ReplicaRanks(key, n, 2); rs[0] != 1; rs = dht.ReplicaRanks(key, n, 2) {
			key += 2
		}
		if me.ID() == 0 {
			tbl.Insert(me, key, 42, nil)
		}
		me.Barrier()
		if me.ID() == 0 {
			before := frames()
			v, ok := tbl.Lookup(me, key).Wait(me)
			if got := frames() - before; !ok || v != 42 || got != 4 {
				t.Errorf("K=2 GET of a key on ranks 1 and 2: (%d, %v) in %d frames, want (42, true) in 4", v, ok, got)
			}
		}
		me.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
