package spmd

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/core"
	"upcxx/internal/dht"
	"upcxx/internal/rpc"
)

// Same-handler messages to one destination travel as runs (internal/agg:
// one header, then a body per message). These tests pin what a run must
// not change, on the flat wire and on two hosts of two ranks, where rank
// 0's peers are rank 1 over the shm ring and rank 2 over the wire.

// runLog[r] is what the run tasks executed on rank r, in order, as
// "from:letter seq": the caller, the task's letter and the sequence
// number its arguments carry. Each rank appends only to its own entry.
var runLog [4][]string

func runTask(letter string) core.Task {
	return core.RegisterTask("spmd_test.run."+letter, func(me *core.Rank, from int, args []byte) []byte {
		seq, _ := rpc.U64(args)
		runLog[me.ID()] = append(runLog[me.ID()], fmt.Sprintf("%d:%s%d", from, letter, seq))
		return args
	})
}

var runA, runB = runTask("A"), runTask("B")

// Aggregated AM ids of the run tests: amRunSink logs the sequence number
// it carries, amRunAsk makes its target answer with three runA tasks.
const (
	amRunSink uint16 = 0x60
	amRunAsk  uint16 = 0x61
)

// noAge keeps batches from shipping on age: they ship where the test
// or a size threshold says.
const noAge = time.Hour

// runTopos are the two topologies every run test covers, each with the
// peers rank 0 aims at.
var runTopos = []struct {
	name  string
	n     int
	peers []int
	run   func(n, seg int, cfg core.Config, main func(me *core.Rank)) error
}{
	{"tcp", 2, []int{1}, func(n, seg int, cfg core.Config, main func(me *core.Rank)) error {
		_, err := RunWireLocal(n, seg, cfg, main)
		return err
	}},
	{"hier-2x2", 4, []int{1, 2}, func(n, seg int, cfg core.Config, main func(me *core.Rank)) error {
		_, err := RunHierLocal(n, 2, seg, cfg, main)
		return err
	}},
}

// sentBy returns the entries of log that rank src caused.
func sentBy(log []string, src int) []string {
	var out []string
	for _, e := range log {
		if strings.HasPrefix(e, fmt.Sprintf("%d:", src)) {
			out = append(out, e)
		}
	}
	return out
}

// TestRunOrder: tasks A, B, A to one destination execute in issue
// order, also when a MaxOps or a MaxBytes flush cuts a run in two.
func TestRunOrder(t *testing.T) {
	for _, topo := range runTopos {
		for _, cfg := range []agg.Config{{MaxAge: noAge}, {MaxOps: 4, MaxAge: noAge}, {MaxBytes: 160, MaxAge: noAge}} {
			t.Run(fmt.Sprintf("%s/maxops=%d/maxbytes=%d", topo.name, cfg.MaxOps, cfg.MaxBytes), func(t *testing.T) {
				runLog = [4][]string{}
				var want []string
				err := topo.run(topo.n, 1<<16, core.Config{Agg: cfg}, func(me *core.Rank) {
					if me.ID() == 0 {
						core.Finish(me, func() {
							for i := 0; i < 40; i++ {
								task, letter := runA, "A"
								if i%4 == 3 {
									task, letter = runB, "B"
								}
								for _, p := range topo.peers {
									core.AsyncTask(me, core.On(p), task, rpc.U64s(uint64(i)))
								}
								want = append(want, fmt.Sprintf("0:%s%d", letter, i))
							}
						})
					}
					me.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range topo.peers {
					if !slices.Equal(runLog[p], want) {
						t.Errorf("rank %d ran %v, want %v", p, runLog[p], want)
					}
				}
			})
		}
	}
}

// TestRunAcrossReply: a run whose first part rides a batch's ack as
// the reply and whose rest follows in a batch of its own runs in issue
// order.
func TestRunAcrossReply(t *testing.T) {
	for _, topo := range runTopos {
		t.Run(topo.name, func(t *testing.T) {
			runLog = [4][]string{}
			asked := make([]bool, topo.n)
			replies := make([]int64, topo.n)
			err := topo.run(topo.n, 1<<16, core.Config{Agg: agg.Config{MaxAge: noAge}}, func(me *core.Rank) {
				core.RegisterAMHandler(me, amRunAsk, func(me *core.Rank, from int, _ []byte) {
					// Buffered while the ask's batch applies: they ride its ack.
					for i := 0; i < 3; i++ {
						core.AsyncTask(me, core.On(from), runA, rpc.U64s(uint64(i)))
					}
					asked[me.ID()] = true
				})
				me.Barrier()
				if me.ID() == 0 {
					for _, p := range topo.peers {
						core.AggSend(me, p, amRunAsk, nil, nil)
					}
					core.AggFlush(me)
					me.WaitUntil(func() bool { return len(runLog[0]) == 6*len(topo.peers) })
				} else if slices.Contains(topo.peers, me.ID()) {
					me.WaitUntil(func() bool { return asked[me.ID()] })
					replies[me.ID()] = counter("agg_ack_replies", me.ID())
					for i := 3; i < 6; i++ {
						core.AsyncTask(me, core.On(0), runA, rpc.U64s(uint64(i)))
					}
					core.AggFlush(me)
				}
				me.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range topo.peers {
				if replies[p] == 0 {
					t.Errorf("rank %d answered without a reply riding an ack", p)
				}
				want := []string{}
				for i := 0; i < 6; i++ {
					want = append(want, fmt.Sprintf("%d:A%d", p, i))
				}
				if got := sentBy(runLog[0], p); !slices.Equal(got, want) {
					t.Errorf("rank 0 ran %v from rank %d, want %v", got, p, want)
				}
			}
		})
	}
}

// TestRunCompletions: AggSends that share one run each fire their own
// completion object exactly once, in issue order; AsyncTaskFuture
// replies still arrive, each with its own value; and DHT inserts of one
// key, merged into one run at its replica, leave the last value
// written.
func TestRunCompletions(t *testing.T) {
	const sends, calls, writes = 10, 8, 12
	for _, topo := range runTopos {
		t.Run(topo.name, func(t *testing.T) {
			sunk := make([][]uint64, topo.n)
			seg := dht.SegBytes(dht.DefaultCapacity(writes)) + 1<<16
			err := topo.run(topo.n, seg, core.Config{Agg: agg.Config{MaxAge: noAge}}, func(me *core.Rank) {
				core.RegisterAMHandler(me, amRunSink, func(me *core.Rank, _ int, p []byte) {
					v, _ := rpc.U64(p)
					sunk[me.ID()] = append(sunk[me.ID()], v)
				})
				table := dht.New(me, dht.DefaultCapacity(writes))
				if me.ID() == 0 {
					for _, p := range topo.peers {
						var fired []int
						for i := 0; i < sends; i++ {
							pr := core.NewPromise(me)
							core.AggSend(me, p, amRunSink, rpc.U64s(uint64(i)), pr)
							core.Then(pr.Finalize(), func(struct{}) struct{} {
								fired = append(fired, i)
								return struct{}{}
							})
						}
						core.AggFlush(me)
						me.WaitUntil(func() bool { return len(fired) >= sends })
						futs := make([]*core.Future[[]byte], calls)
						for i := range futs {
							futs[i] = core.AsyncTaskFuture(me, p, runA, rpc.U64s(uint64(100+i)))
						}
						for i, f := range futs {
							if v, _ := rpc.U64(f.Get()); v != uint64(100+i) {
								t.Errorf("rank %d: call %d answered %d", p, i, v)
							}
						}
						me.Barrier() // to the peers: nothing more is in flight
						if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(fired, want) {
							t.Errorf("rank %d: completions fired %v, want %v once each", p, fired, want)
						}
					}
					key := remoteKey(me.Ranks())
					for i := 0; i < writes; i++ {
						table.Insert(me, key, uint64(1000+i), nil)
					}
				} else {
					for range topo.peers {
						me.Barrier()
					}
				}
				me.Barrier()
				if v, ok := table.Lookup(me, remoteKey(me.Ranks())).Wait(me); !ok || v != 1000+writes-1 {
					t.Errorf("rank %d looked up %d (found %v), want the last write %d", me.ID(), v, ok, 1000+writes-1)
				}
				me.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range topo.peers {
				if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(sunk[p], want) {
					t.Errorf("rank %d's handler ran %v, want %v", p, sunk[p], want)
				}
			}
		})
	}
}

// remoteKey is a key whose replica is not rank 0, so its inserts from
// rank 0 travel as aggregated messages.
func remoteKey(ranks int) uint64 {
	for k := uint64(1); ; k++ {
		if dht.ReplicaRanks(k, ranks, 1)[0] != 0 {
			return k
		}
	}
}
