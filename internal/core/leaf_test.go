package core_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/rpc"
	"upcxx/internal/spmd"
)

// Tasks of TestLeafTaskScope. Arguments are words: [rank][off][val]
// names the word off of rank's cell array and the value to leave there.
var (
	// leafXorAt xors val into (rank, off): a leaf when rank is the
	// executor, an aggregated remote op otherwise.
	leafXorAt = core.RegisterTask("core_test.leaf.xor-at", func(me *core.Rank, _ int, args []byte) []byte {
		rank, off, val := leafArgs(args)
		core.AggXor64(me, core.PtrAt[uint64](rank, off), val, nil)
		return nil
	})
	// leafPing, run at C for a body waiting at B, launches leafXorAt back
	// at B (which runs it inside that wait) aimed at C's own word.
	leafPing = core.RegisterTask("core_test.leaf.ping", func(me *core.Rank, from int, args []byte) []byte {
		_, off, val := leafArgs(args)
		core.AsyncTask(me, core.On(from), leafXorAt, rpc.U64s(uint64(me.ID()), off, val))
		return nil
	})
	leafBoom = core.RegisterTask("core_test.leaf.boom", func(*core.Rank, int, []byte) []byte {
		panic("boom")
	})
)

func leafArgs(args []byte) (rank int, off, val uint64) {
	r, rest := rpc.U64(args)
	off, rest = rpc.U64(rest)
	val, _ = rpc.U64(rest)
	return int(r), off, val
}

// leafTriggers are the ways a task body issues tracked work. Each body
// runs at rank B and leaves val at word off of rank C through a subtree
// the body does not wait for (except the last two, which block in the
// body); wire and proc are how many task scopes the case takes job wide
// on a wire job and in-process (where a remote aggregated op is a
// direct access, nothing to track).
var leafTriggers = []struct {
	name       string
	body       func(me *core.Rank, c int, off, val uint64)
	wire, proc int64
}{
	{"AsyncTask", func(me *core.Rank, c int, off, val uint64) {
		core.AsyncTask(me, core.On(c), leafXorAt, rpc.U64s(uint64(c), off, val))
	}, 1, 1},
	{"AggXor64", func(me *core.Rank, c int, off, val uint64) {
		core.AggXor64(me, core.PtrAt[uint64](c, off), val, nil)
	}, 1, 0},
	{"AggPut", func(me *core.Rank, c int, off, val uint64) {
		core.AggPut(me, core.PtrAt[uint64](c, off), val, nil)
	}, 1, 0},
	{"AsyncTaskFuture unwaited", func(me *core.Rank, c int, off, val uint64) {
		core.AsyncTaskFuture(me, c, leafXorAt, rpc.U64s(uint64(c), off, val))
	}, 1, 1},
	{"After", func(me *core.Rank, c int, off, val uint64) {
		ev := core.NewEvent()
		core.RegisterWith(ev, me, 1)
		core.AsyncTask(me, core.On(c), leafXorAt, rpc.U64s(uint64(c), off, val), core.After(ev))
		core.CompleteAt(ev, me.Now(), me) // the deferred launch leaves now, after AsyncTask returned
	}, 1, 1},
	{"Signal", func(me *core.Rank, c int, off, val uint64) {
		core.AsyncTask(me, core.On(c), leafXorAt, rpc.U64s(uint64(c), off, val), core.Signal(core.NewEvent()))
	}, 1, 1},
	// A nested Finish drains its own subtree before the body returns, so
	// the task itself stays a leaf.
	{"nested Finish", func(me *core.Rank, c int, off, val uint64) {
		core.Finish(me, func() {
			core.AsyncTask(me, core.On(c), leafXorAt, rpc.U64s(uint64(c), off, val))
		})
	}, 0, 0},
	// The body waits on C's leafPing, whose launch back at B runs inside
	// that wait, one task entry above the body's: the body's scope (its
	// future's), leafPing's, and — on the wire — the nested task's, whose
	// remote xor at C is what the caller's Finish must outwait.
	{"wait running a task", func(me *core.Rank, c int, off, val uint64) {
		core.AsyncTaskFuture(me, c, leafPing, rpc.U64s(uint64(c), off, val)).Wait()
	}, 3, 2},
}

var leafTrigger = func() []core.Task {
	ts := make([]core.Task, len(leafTriggers))
	for i, tc := range leafTriggers {
		body := tc.body
		ts[i] = core.RegisterTask("core_test.leaf.trigger."+tc.name, func(me *core.Rank, _ int, args []byte) []byte {
			c, off, val := leafArgs(args)
			body(me, c, off, val)
			return nil
		})
	}
	return ts
}()

// TestLeafTaskScope: a task whose body issues nothing tracked takes no
// finish scope — a leaf storm leaves core_task_scopes at exactly 0 —
// while every way a body can issue tracked work still takes one, and a
// Finish around the task still waits for the whole subtree: rank A
// launches each trigger at rank B under a Finish and reads the word the
// subtree writes at rank C as soon as the Finish returns. A panicking
// leaf still names its task and route.
func TestLeafTaskScope(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		wire bool
		run  func(main func(me *core.Rank)) []core.Stats
	}{
		{"proc", 3, false, func(main func(me *core.Rank)) []core.Stats {
			return []core.Stats{core.Run(core.Config{Ranks: 3}, main)}
		}},
		{"tcp", 3, true, func(main func(me *core.Rank)) []core.Stats {
			sts, err := spmd.RunWireLocal(3, 1<<17, core.Config{}, main)
			if err != nil {
				t.Fatal(err)
			}
			return sts
		}},
		{"hier", 4, true, func(main func(me *core.Rank)) []core.Stats {
			sts, err := spmd.RunHierLocal(4, 2, 1<<17, core.Config{}, main) // A, B on one host, C on the other
			if err != nil {
				t.Fatal(err)
			}
			return sts
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scopes := func(sts []core.Stats) (n float64) {
				for _, st := range sts {
					n += st.Counters["core_task_scopes"]
				}
				return n
			}

			// A leaf storm: every rank at its right neighbour, and the
			// executor's own cell the target of every body's xor.
			const leaves = 200
			sts := tc.run(func(me *core.Rank) {
				n := me.Ranks()
				next, prev := (me.ID()+1)%n, (me.ID()+n-1)%n
				cells := core.TeamAllGather(me.World(), core.Allocate[uint64](me, me.ID(), 1))
				me.Barrier()
				core.Finish(me, func() {
					for i := 0; i < leaves; i++ {
						core.AsyncTask(me, core.On(next), leafXorAt, rpc.U64s(uint64(next), cells[next].Offset(), stormVal(me.ID(), i)))
					}
				})
				me.Barrier()
				var want uint64
				for i := 0; i < leaves; i++ {
					want ^= stormVal(prev, i)
				}
				if got := core.Read(me, cells[me.ID()]); got != want {
					t.Errorf("rank %d cell %#x, fold of rank %d's leaves %#x", me.ID(), got, prev, want)
				}
			})
			if got := scopes(sts); got != 0 {
				t.Errorf("leaf storm took %v task scopes, want 0", got)
			}

			// The triggers, then the panicking leaf on every rank.
			taken := make([]atomic.Int64, len(leafTriggers))
			var total int64
			sts = tc.run(func(me *core.Rank) {
				a, b, c := 0, 1, me.Ranks()-1
				cells := core.TeamAllGather(me.World(), core.Allocate[uint64](me, me.ID(), len(leafTriggers)))
				me.Barrier()
				for k, trig := range leafTriggers {
					before := core.TaskScopes(me)
					me.Barrier() // no rank runs case k before every rank has read before
					if me.ID() == a {
						val := stormVal(a, k)
						core.Finish(me, func() {
							core.AsyncTask(me, core.On(b), leafTrigger[k], rpc.U64s(uint64(c), cells[c].Add(k).Offset(), val))
						})
						if got := core.Read(me, cells[c].Add(k)); got != val {
							t.Errorf("%s: rank %d word %d = %#x when the Finish returned, want %#x", trig.name, c, k, got, val)
						}
					}
					me.Barrier()
					taken[k].Add(core.TaskScopes(me) - before)
				}
				func() {
					defer func() {
						p := recover()
						err, _ := p.(error)
						want := fmt.Sprintf(`task "core_test.leaf.boom" from rank %d panicked on rank %d: boom`, me.ID(), me.ID())
						if err == nil || !strings.Contains(err.Error(), want) {
							t.Errorf("rank %d: panic %v, want one naming %s", me.ID(), p, want)
						}
					}()
					core.AsyncTask(me, core.On(me.ID()), leafBoom, nil)
				}()
			})
			for k, trig := range leafTriggers {
				want := trig.proc
				if tc.wire {
					want = trig.wire
				}
				total += want
				if got := taken[k].Load(); got != want {
					t.Errorf("%s took %d task scopes, want %d", trig.name, got, want)
				}
			}
			if got := scopes(sts); got != float64(total) {
				t.Errorf("core_task_scopes = %v, want %d", got, total)
			}
		})
	}
}
