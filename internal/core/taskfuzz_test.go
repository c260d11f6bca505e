package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/frames"
	"upcxx/internal/gasnet"
	"upcxx/internal/rpc"
	"upcxx/internal/segment"
	"upcxx/internal/sim"
	"upcxx/internal/transport"
)

// fuzzTaskArgs logs the arguments the fuzz task ran with, in order.
var fuzzTaskArgs [][]byte

var fuzzTask = RegisterTask("core.fuzz.log", func(_ *Rank, _ int, args []byte) []byte {
	fuzzTaskArgs = append(fuzzTaskArgs, append([]byte(nil), args...))
	return args
})

// fuzzAM is the one aggregated AM handler the fuzzed rank registers.
const fuzzAM = reservedAMLimit

// handlerConduit is a wire conduit that also hands the test the batch
// handler the rank installs on it: apply is what the conduit runs on
// every incoming batch, and on an error the conduit severs the sender
// (gasnet's TestMalformedBatchSevers) and runs neither reply nor after.
type handlerConduit struct {
	*gasnet.WireConduit
	apply func(from int, payload []byte) error
	reply func(to int) []byte
	after func()
}

func (c *handlerConduit) SetBatchHandler(apply func(int, []byte) error, reply func(int) []byte, after func()) {
	c.apply, c.reply, c.after = apply, reply, after
	c.WireConduit.SetBatchHandler(apply, reply, after)
}

func (c *handlerConduit) Capabilities() gasnet.Caps {
	caps := c.WireConduit.Capabilities()
	caps.Batch = c
	return caps
}

// taskPair is a 2-rank wire job inside this process: rank 1 is a core
// rank built as RunWire builds it, its aggregation plane wired and the
// test goroutine standing in for its dispatch; rank 0 is a bare conduit
// serving on a goroutine of its own, acknowledging what rank 1 sends.
type taskPair struct {
	cd   *handlerConduit
	me   *Rank
	ams  [][]byte // payloads fuzzAM received
	stop func()
}

func newTaskPair(t testing.TB, segBytes int) *taskPair {
	t.Helper()
	eps := make([]*transport.TCPEndpoint, 2)
	addrs := make([]string, 2)
	for i := range eps {
		ep, err := transport.ListenTCP(i, 2, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[i], addrs[i] = ep, ep.Addr()
	}
	raw := gasnet.NewWireConduit(eps[0], segment.New(64), gasnet.WireConfig{})
	raw.SetBatchHandler(func(int, []byte) error { return nil }, func(int) []byte { return nil }, func() {})
	seg := segment.New(segBytes)
	p := &taskPair{cd: &handlerConduit{WireConduit: gasnet.NewWireConduit(eps[1], seg, gasnet.WireConfig{})}}
	errs := make(chan error, 2)
	for _, cd := range []*gasnet.WireConduit{raw, p.cd.WireConduit} {
		go func() { errs <- cd.Connect(addrs, time.Time{}) }()
	}
	for range eps {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var quit atomic.Bool
	served := make(chan error, 1)
	go func() { served <- raw.WaitFor(quit.Load) }()

	cfg := Config{Ranks: 2}.withDefaults()
	p.me = newJob(cfg, gasnet.New(sim.NoCost(2), 2), false, []*segment.Segment{nil, seg},
		map[int]gasnet.Conduit{1: p.cd}).ranks[1]
	p.me.initAgg(p.me.caps.Batch, cfg.Agg)
	RegisterAMHandler(p.me, fuzzAM, func(_ *Rank, _ int, payload []byte) {
		p.ams = append(p.ams, append([]byte(nil), payload...))
	})
	p.stop = func() {
		quit.Store(true)
		raw.Wake()
		if err := <-served; err != nil {
			t.Errorf("rank 0: %v", err)
		}
		raw.Close()
		p.cd.Close()
	}
	return p
}

// deliver runs one batch from rank 0 through rank 1 as its conduit
// does: apply, then — for an applied batch — the reply hook, whose
// bytes (the ack's reply, which rank 0 awaits none of) are dropped, and
// the after hook, which ships whatever else the batch's ops buffered.
// Acknowledgements of earlier batches are taken in first.
func (p *taskPair) deliver(batch []byte) error {
	p.cd.Poll()
	if err := p.cd.apply(0, batch); err != nil {
		return err
	}
	if rep := p.cd.reply(0); rep != nil {
		frames.Put(rep)
	}
	p.cd.after()
	return nil
}

var errRefused = errors.New("refused")

// refRank is the reference of what rank 1 does with a batch: the effect
// of each op on a shadow of its segment, its AM log and its task log,
// and errRefused at the first op no correct peer sends. other marks a
// request for a registered task other than fuzzTask, whose body is
// beyond the reference.
type refRank struct {
	mem        []byte
	ams, tasks [][]byte
	other      bool
}

func (a *refRank) in(off, n uint64) bool {
	return off <= uint64(len(a.mem)) && n <= uint64(len(a.mem))-off
}

func (a *refRank) Put(off uint64, data []byte) error {
	if !a.in(off, uint64(len(data))) {
		return errRefused
	}
	copy(a.mem[off:], data)
	return nil
}

func (a *refRank) Xor64(off, val uint64) error {
	if off%8 != 0 || !a.in(off, 8) {
		return errRefused
	}
	binary.LittleEndian.PutUint64(a.mem[off:], binary.LittleEndian.Uint64(a.mem[off:])^val)
	return nil
}

func (a *refRank) AM(id uint16, payload []byte) error {
	switch id {
	case fuzzAM:
		a.ams = append(a.ams, append([]byte(nil), payload...))
		return nil
	case amRPCReq:
		req, err := rpc.DecodeRequest(payload)
		if err != nil || int(req.Task) >= taskRegistry.Len() {
			return errRefused
		}
		if req.Task != fuzzTask.Index() {
			a.other = true
			return errRefused
		}
		a.tasks = append(a.tasks, append([]byte(nil), req.Args...))
		return nil
	}
	// Replies and done-acks are refused too: rank 1 awaits none.
	return errRefused
}

// FuzzTaskProtocol hands arbitrary batches of the aggregation plane —
// puts, xors, registered AMs and the three messages of the task
// protocol — from rank 0 to rank 1 of a 2-rank wire pair, through the
// batch handler rank 1 installed on its conduit, and holds rank 1 to a
// reference: the ops before the first one no correct peer sends take
// the reference effect, and that op, if any, rejects the batch with an
// error (on which the conduit severs the sender). Never a panic. The
// seeds include one of each rejection, every one of which panicked the
// job before the handler could fail.
func FuzzTaskProtocol(f *testing.F) {
	const memBytes = 2048
	var seeds [][]byte
	enc := agg.New(2, agg.Config{MaxOps: 1 << 10}, func(_ int, batch []byte, _ int, done func()) {
		seeds = append(seeds, append([]byte(nil), batch...))
		done()
	})
	seed := func(ops func()) {
		ops()
		enc.Flush(1)
	}
	seed(func() { // well-formed: every op a correct peer sends
		enc.Put(1, 8, []byte("hello"), nil)
		enc.Xor64(1, 16, 0xABCD, nil)
		enc.Send(1, fuzzAM, []byte("ping"), nil)
		enc.Send(1, amRPCReq, rpc.AppendRequest(nil, fuzzTask.Index(), rpc.FlagReply, 7, 3, []byte("args")), nil)
		enc.Send(1, amRPCReq, rpc.AppendRequest(nil, fuzzTask.Index(), 0, 0, 0, nil), nil)
	})
	seed(func() { enc.Put(1, 1<<40, []byte("far"), nil) })       // a put past the segment
	seed(func() { enc.Put(1, memBytes-2, []byte("edge"), nil) }) // a put over its end
	seed(func() { enc.Xor64(1, memBytes, 1, nil) })              // an xor past it
	seed(func() { enc.Xor64(1, 3, 1, nil) })                     // an unaligned xor
	seed(func() { enc.Send(1, fuzzAM+1, nil, nil) })             // an unregistered handler
	seed(func() { enc.Send(1, 0x07, nil, nil) })                 // a reserved id with no handler
	seed(func() { enc.Send(1, amRPCReq, []byte{1, 2}, nil) })    // a truncated request
	seed(func() { enc.Send(1, amRPCRep, rpc.AppendReply(nil, 9, []byte("x")), nil) })
	seed(func() { enc.Send(1, amRPCDone, rpc.AppendDone(nil, 5, 1), nil) })
	seed(func() { enc.Send(1, amRPCReq, rpc.AppendRequest(nil, 0xFFFF, 0, 0, 0, nil), nil) })
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add([]byte{0xFF})

	pair := newTaskPair(f, memBytes)
	f.Cleanup(pair.stop)
	shadow := make([]byte, memBytes) // rank 1's segment as the reference has it
	f.Fuzz(func(t *testing.T, batch []byte) {
		ref := &refRank{mem: bytes.Clone(shadow)}
		_, refErr := agg.Apply(batch, ref)
		if ref.other {
			t.Skip("a request for a task other than the fuzz task")
		}
		pair.ams, fuzzTaskArgs = nil, nil
		err := pair.deliver(batch)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("%d-byte batch %x: rank 1 says %v, the reference %v", len(batch), batch, err, refErr)
		}
		copy(shadow, ref.mem)
		if got := pair.me.seg.Window(0, memBytes); !bytes.Equal(got, shadow) {
			t.Fatalf("%d-byte batch %x: segment differs from the reference", len(batch), batch)
		}
		if !slices.EqualFunc(pair.ams, ref.ams, bytes.Equal) || !slices.EqualFunc(fuzzTaskArgs, ref.tasks, bytes.Equal) {
			t.Fatalf("%d-byte batch %x: AMs %q and tasks %q ran, reference %q and %q",
				len(batch), batch, pair.ams, fuzzTaskArgs, ref.ams, ref.tasks)
		}
	})
}
