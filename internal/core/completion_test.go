package core_test

import (
	"fmt"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/rpc"
	"upcxx/internal/spmd"
)

// The completion contract, one table over every producer and every
// non-blocking operation, in-process and on the wire: a completion
// object fires exactly once per operation set, and the data is visible
// when it fires — a read issued from the fire observer sees it.

var completionStore = core.RegisterTask("core_test.completion.store", func(me *core.Rank, _ int, args []byte) []byte {
	off, rest := rpc.U64(args)
	val, _ := rpc.U64(rest)
	core.LocalSlice(me, core.PtrAt[uint64](me.ID(), off), 1)[0] = val
	return nil
})

// completionOp issues one non-blocking operation that leaves vals at
// dst (src is scratch space on the same rank), completing into done;
// settle is what synchronizes it when done is nil.
type completionOp struct {
	name   string
	n      int
	issue  func(me *core.Rank, src, dst core.GlobalPtr[uint64], vals []uint64, done core.Completer)
	settle func(me *core.Rank)
}

// completionProducer builds a completion object and attaches observe to
// each of its fires, returning how many fires to expect and how to
// wait for the operation set. A nil Completer is the implicit handle.
type completionProducer struct {
	name string
	arm  func(me *core.Rank, observe func()) (done core.Completer, fires int, wait func())
}

func onFire(me *core.Rank, ev *core.Event, observe func()) {
	core.AsyncAfter(me, core.On(me.ID()), ev, nil, func(*core.Rank) { observe() })
}

var completionOps = []completionOp{
	{"AsyncCopy", 4, func(me *core.Rank, src, dst core.GlobalPtr[uint64], vals []uint64, done core.Completer) {
		core.WriteSlice(me, src, vals)
		core.AsyncCopy(me, src, dst, len(vals), done)
	}, core.AsyncCopyFence},
	{"WriteSliceAsync", 4, func(me *core.Rank, _, dst core.GlobalPtr[uint64], vals []uint64, done core.Completer) {
		core.WriteSliceAsync(me, dst, vals, done)
	}, core.AsyncCopyFence},
	{"AggPut", 1, func(me *core.Rank, _, dst core.GlobalPtr[uint64], vals []uint64, done core.Completer) {
		core.AggPut(me, dst, vals[0], done)
	}, core.AggDrain},
	{"AsyncTask", 1, func(me *core.Rank, _, dst core.GlobalPtr[uint64], vals []uint64, done core.Completer) {
		args := rpc.U64s(dst.Offset(), vals[0])
		switch d := done.(type) {
		case nil:
			core.Finish(me, func() { core.AsyncTask(me, core.On(dst.Where()), completionStore, args) })
		case *core.Event:
			core.AsyncTask(me, core.On(dst.Where()), completionStore, args, core.Signal(d))
		default:
			core.AsyncTask(me, core.On(dst.Where()), completionStore, args, core.Onto(d))
		}
	}, func(*core.Rank) {}},
}

var completionProducers = []completionProducer{
	{"Event", func(me *core.Rank, observe func()) (core.Completer, int, func()) {
		ev := core.NewEvent()
		return ev, 1, func() { onFire(me, ev, observe); ev.Wait(me) }
	}},
	{"Promise", func(me *core.Rank, observe func()) (core.Completer, int, func()) {
		p := core.NewPromise(me)
		core.Then(p.Future(), func(struct{}) struct{} { observe(); return struct{}{} })
		return p, 1, func() { p.Finalize().Wait() }
	}},
	{"Onto(ev,p)", func(me *core.Rank, observe func()) (core.Completer, int, func()) {
		ev, p := core.NewEvent(), core.NewPromise(me)
		core.Then(p.Future(), func(struct{}) struct{} { observe(); return struct{}{} })
		return core.Onto(ev, p), 2, func() {
			onFire(me, ev, observe)
			p.Finalize().Wait()
			ev.Wait(me)
		}
	}},
	{"implicit", func(*core.Rank, func()) (core.Completer, int, func()) {
		return nil, 0, nil
	}},
}

func TestCompletionProducersFireOnce(t *testing.T) {
	for _, be := range []struct {
		name string
		run  func(main func(me *core.Rank)) error
	}{
		{"proc", func(main func(me *core.Rank)) error {
			core.Run(core.Config{Ranks: 2}, main)
			return nil
		}},
		{"tcp", func(main func(me *core.Rank)) error {
			_, err := spmd.RunWireLocal(2, 1<<18, core.Config{}, main)
			return err
		}},
	} {
		t.Run(be.name, func(t *testing.T) {
			if err := be.run(func(me *core.Rank) { completionMatrix(t, me) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// completionMatrix runs every producer x op case from rank 0 against
// rank 1's segment; rank 1 only services progress.
func completionMatrix(t *testing.T, me *core.Rank) {
	if me.ID() == 0 {
		salt := uint64(0)
		for _, pr := range completionProducers {
			for _, op := range completionOps {
				salt++
				what := fmt.Sprintf("%s/%s", pr.name, op.name)
				src := core.Allocate[uint64](me, 1, op.n)
				dst := core.Allocate[uint64](me, 1, op.n)
				vals := make([]uint64, op.n)
				for i := range vals {
					vals[i] = salt<<32 | uint64(i+1)
				}
				fires := 0
				var reads []*core.Future[[]uint64]
				observe := func() {
					fires++
					reads = append(reads, core.ReadSliceAsync(me, dst, make([]uint64, op.n)))
				}
				done, want, wait := pr.arm(me, observe)
				op.issue(me, src, dst, vals, done)
				if done == nil {
					op.settle(me)
					reads = append(reads, core.ReadSliceAsync(me, dst, make([]uint64, op.n)))
				} else {
					wait()
				}
				me.WaitUntil(func() bool { return fires >= want })
				for _, r := range reads {
					got := r.Get()
					for i := range vals {
						if got[i] != vals[i] {
							t.Errorf("%s: dst[%d] = %#x when the completion fired, want %#x", what, i, got[i], vals[i])
							break
						}
					}
				}
				me.Advance()
				if fires != want {
					t.Errorf("%s: fired %d times, want %d", what, fires, want)
				}
			}
		}
	}
	me.Barrier()
}
