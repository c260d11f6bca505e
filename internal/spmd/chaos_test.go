package spmd

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"upcxx/internal/core"
	"upcxx/internal/dht"
	"upcxx/internal/fault"
	"upcxx/internal/gasnet"
	"upcxx/internal/segment"
	"upcxx/internal/transport"
)

func chaosKey(rank, i int) uint64 { return mix(uint64(rank)<<32+uint64(i))<<1 | 1 }
func chaosVal(k uint64) uint64    { return mix(k ^ 0x5851F42D4C957F2D) }

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return p
}

// runWireFaulty is the chaos-test harness: an n-rank wire job in one
// process like RunWireLocal, but with the transport endpoints exposed
// to the program body (so a rank can Abort itself, simulating a crash)
// and per-rank panics captured instead of crashing the test binary —
// a deliberately killed rank's teardown is allowed to fail.
func runWireFaulty(t *testing.T, n, segBytes int, cfg core.Config,
	main func(me *core.Rank, eps []*transport.TCPEndpoint)) []any {
	t.Helper()
	eps := make([]*transport.TCPEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := transport.ListenTCP(i, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Fault != nil {
			ep.SetFault(cfg.Fault.ForRank(i))
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			if err := eps[i].Connect(addrs); err != nil {
				panics[i] = err
				return
			}
			seg := segment.New(segBytes)
			cd := gasnet.NewWireConduit(eps[i], seg)
			defer cd.Close()
			core.RunWire(cfg, cd, seg, func(me *core.Rank) { main(me, eps) })
			cd.Goodbye()
		}(i)
	}
	wg.Wait()
	return panics
}

// TestPeerDeathUnblocksFutureGet is the regression test for the wire
// backend's worst failure mode before resilience existed: a peer dying
// while Future.Get was blocked left the caller spinning forever. Now
// the death must fail the future typed, and Get must panic with a
// cause satisfying errors.Is(err, core.ErrRankDead) — promptly, not
// after some unrelated timeout.
func TestPeerDeathUnblocksFutureGet(t *testing.T) {
	cfg := core.Config{
		Resilient:         true,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatTimeout:  120 * time.Millisecond,
	}
	var got error
	var elapsed time.Duration
	panics := runWireFaulty(t, 2, 1<<20, cfg, func(me *core.Rank, eps []*transport.TCPEndpoint) {
		if me.ID() == 1 {
			// Serve rank 0's allocation, then die without a goodbye while
			// its read is in flight.
			me.Barrier()
			time.Sleep(40 * time.Millisecond)
			eps[1].Abort()
			return
		}
		p := core.Allocate[uint64](me, 1, 1)
		me.Barrier()
		start := time.Now()
		func() {
			defer func() {
				elapsed = time.Since(start)
				r := recover()
				if r == nil {
					return
				}
				err, ok := r.(error)
				if !ok {
					panic(r)
				}
				got = err
			}()
			// Rank 1 sleeps through this request and then aborts: without
			// the death pipeline this Get never returned.
			core.ReadAsync(me, p).Get()
		}()
	})
	if panics[0] != nil {
		t.Fatalf("rank 0 panicked: %v", panics[0])
	}
	if got == nil {
		t.Fatalf("Get returned a value; want a typed ErrRankDead panic")
	}
	if !errors.Is(got, core.ErrRankDead) {
		t.Fatalf("Get panicked with %v; want errors.Is(err, ErrRankDead)", got)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("death detection took %v; want well under the 2s policy bound", elapsed)
	}
}

// TestRetryRecoversDroppedReply: a fault plan drops rank 0's first Get
// request frame on the floor; a RetryPolicy with a per-attempt reply
// deadline must time the attempt out and re-issue it, and the future
// must resolve with the correct value — after at least one full
// attempt timeout, proving the first attempt really was lost.
func TestRetryRecoversDroppedReply(t *testing.T) {
	const attemptTimeout = 100 * time.Millisecond
	plan := mustPlan(t, "drop:rank=0,peer=1,handler=2,op=1") // handler 2 = wire hGet
	cfg := core.Config{
		Resilient:         true,
		Fault:             plan,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second, // death detection must not race the retry
	}
	var elapsed time.Duration
	panics := runWireFaulty(t, 2, 1<<20, cfg, func(me *core.Rank, _ []*transport.TCPEndpoint) {
		if me.ID() == 0 {
			p := core.Allocate[uint64](me, 1, 1)
			core.Write(me, p, 0xFEEDFACE)
			start := time.Now()
			f := core.ReadAsync(me, p, core.WithRetry(core.RetryPolicy{
				MaxAttempts:    3,
				AttemptTimeout: attemptTimeout,
			}))
			if v := f.Get(); v != 0xFEEDFACE {
				t.Errorf("retried read = %#x, want 0xFEEDFACE", v)
			}
			elapsed = time.Since(start)
		}
		me.Barrier()
	})
	for r, p := range panics {
		if p != nil {
			t.Fatalf("rank %d panicked: %v", r, p)
		}
	}
	if elapsed < attemptTimeout {
		t.Fatalf("read completed in %v, faster than one attempt timeout %v — the drop rule never fired",
			elapsed, attemptTimeout)
	}
}

// TestTeamCollectivesSurviveDeath: on a resilient wire job a team
// collective whose member dies completes over the survivors, as the
// world's does — the dead slot comes back as the zero value and folds
// skip it — and one whose root dies fails typed on every member. Each
// case runs under a deadline, so a collective that waits for a corpse
// fails the test instead of hanging it.
func TestTeamCollectivesSurviveDeath(t *testing.T) {
	const n, bound, deadline = 4, 2 * time.Second, 10 * time.Second
	cfg := core.Config{
		Resilient:         true,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatTimeout:  120 * time.Millisecond,
	}
	val := func(rank int) float64 { return float64(rank + 1) } // positive: a zero folded in would show
	sum := func(a, b float64) float64 { return a + b }

	// run splits a 4-rank job into the ranks inTeam picks and the rest,
	// has rank dies abort right after the split, and runs body on every
	// other rank with its team; body must return within bound.
	run := func(t *testing.T, inTeam func(rank int) bool, dies int, body func(me *core.Rank, tm *core.Team) error) {
		errs := make([]error, n)
		done := make(chan []any, 1)
		go func() {
			done <- runWireFaulty(t, n, 1<<16, cfg, func(me *core.Rank, eps []*transport.TCPEndpoint) {
				color := 1
				if inTeam(me.ID()) {
					color = 0
				}
				tm := me.SplitTeam(color, me.ID())
				if me.ID() == dies {
					eps[dies].Abort()
					return
				}
				start := time.Now()
				err := body(me, tm)
				if took := time.Since(start); err == nil && took > bound {
					err = fmt.Errorf("collectives took %v, want under %v", took, bound)
				}
				errs[me.ID()] = err
			})
		}()
		var panics []any
		select {
		case panics = <-done:
		case <-time.After(deadline):
			t.Fatalf("the job did not finish within %v: a collective waited for dead rank %d", deadline, dies)
		}
		for r := range n {
			if r != dies && panics[r] != nil {
				t.Errorf("survivor rank %d panicked: %v", r, panics[r])
			}
			if errs[r] != nil {
				t.Errorf("rank %d: %v", r, errs[r])
			}
		}
	}

	// survive runs a barrier, an allgather and two reductions on tm,
	// whose member dies is dead, and checks them against its survivors.
	survive := func(dies int) func(me *core.Rank, tm *core.Team) error {
		return func(me *core.Rank, tm *core.Team) error {
			tm.Barrier()
			all := core.TeamAllGather(tm, val(me.ID()))
			wantMin, wantSum := math.Inf(1), 0.0
			for i, w := range tm.Members() {
				want := val(w)
				if w == dies {
					want = 0
				} else {
					wantMin, wantSum = math.Min(wantMin, want), wantSum+want
				}
				if all[i] != want {
					return fmt.Errorf("TeamAllGather slot of rank %d = %v, want %v", w, all[i], want)
				}
			}
			if got := core.TeamReduce(tm, val(me.ID()), math.Min); got != wantMin {
				return fmt.Errorf("TeamReduce(min) = %v, want the survivors' %v", got, wantMin)
			}
			if got := core.TeamReduce(tm, val(me.ID()), sum); got != wantSum {
				return fmt.Errorf("TeamReduce(sum) = %v, want the survivors' %v", got, wantSum)
			}
			return nil
		}
	}

	t.Run("member dies", func(t *testing.T) {
		run(t, func(r int) bool { return r <= 2 }, 2, survive(2))
	})
	t.Run("world member dies", func(t *testing.T) {
		s := survive(2)
		run(t, func(int) bool { return true }, 2, func(me *core.Rank, _ *core.Team) error { return s(me, me.World()) })
	})
	t.Run("root dies", func(t *testing.T) {
		run(t, func(r int) bool { return r >= 1 }, 1, func(me *core.Rank, tm *core.Team) error {
			if tm.Ranks() == 1 {
				return nil // rank 0, alone in its team
			}
			var err error
			func() {
				defer func() { err, _ = recover().(error) }()
				core.TeamReduce(tm, val(me.ID()), math.Min)
			}()
			if !errors.Is(err, core.ErrRankDead) {
				return fmt.Errorf("TeamReduce with team root 1 dead: %v, want a panic satisfying errors.Is(err, ErrRankDead)", err)
			}
			return nil
		})
	})
}

var chaosEcho = core.RegisterTask("spmd.chaos.echo",
	func(me *core.Rank, from int, args []byte) []byte { return args })

// TestDelayedAckAfterFinishWait: the executor's ack of the request
// batch — carrying as its reply both the task's return value and the
// done-ack Finish waits for — is delayed after Finish has already
// entered its wait. Finish must stay blocked for the full delay and
// then complete normally, with the future carrying the right bytes: a
// late ack is late, not lost.
func TestDelayedAckAfterFinishWait(t *testing.T) {
	const delay = 150 * time.Millisecond
	// handler 1 = wire hReply; rank 1's first one to rank 0 is the ack of
	// the task's request batch. Heartbeats, whose answers are hReply
	// frames too, stay out of the window.
	plan := mustPlan(t, "delay:rank=1,peer=0,handler=1,op=1,delay=150ms")
	cfg := core.Config{Fault: plan, HeartbeatInterval: time.Minute, HeartbeatTimeout: time.Minute}
	var elapsed time.Duration
	panics := runWireFaulty(t, 2, 1<<20, cfg, func(me *core.Rank, _ []*transport.TCPEndpoint) {
		me.Barrier()
		if me.ID() == 0 {
			var f *core.Future[[]byte]
			start := time.Now()
			core.Finish(me, func() {
				f = core.AsyncTaskFuture(me, 1, chaosEcho, []byte{0x2A})
			})
			elapsed = time.Since(start)
			if got := f.Get(); len(got) != 1 || got[0] != 0x2A {
				t.Errorf("echo reply = %v, want [42]", got)
			}
		}
		me.Barrier()
	})
	for r, p := range panics {
		if p != nil {
			t.Fatalf("rank %d panicked: %v", r, p)
		}
	}
	if elapsed < delay-10*time.Millisecond {
		t.Fatalf("Finish returned in %v, before the delayed ack (%v) can have arrived", elapsed, delay)
	}
}

// TestQuorumReadAfterReplicaDeath: on a K=2 replicated table, every
// key must remain readable with its exact value after one replica rank
// crashes — lookups re-route to the surviving replica, and the
// first-live-replica checksum still equals the full-contents oracle on
// every survivor.
func TestQuorumReadAfterReplicaDeath(t *testing.T) {
	const n, perRank = 3, 96
	capPerRank := dht.DefaultCapacity(2 * perRank)
	cfg := core.Config{
		Resilient:         true,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
	}
	pairs := make(map[uint64]uint64)
	var keys []uint64
	for r := 0; r < n; r++ {
		for i := 0; i < perRank; i++ {
			k := chaosKey(r, i)
			pairs[k] = chaosVal(k)
			keys = append(keys, k)
		}
	}
	sums := make([]uint64, n)
	panics := runWireFaulty(t, n, dht.SegBytes(capPerRank), cfg,
		func(me *core.Rank, eps []*transport.TCPEndpoint) {
			tbl := dht.NewWithConfig(me, capPerRank, dht.Config{Replicas: 2, ReadRepair: true})
			for i := 0; i < perRank; i++ {
				k := chaosKey(me.ID(), i)
				tbl.Insert(me, k, chaosVal(k), nil)
			}
			me.Barrier()
			if me.ID() == 1 {
				time.Sleep(30 * time.Millisecond)
				eps[1].Abort()
				return
			}
			me.WaitUntil(func() bool { return !me.RankAlive(1) })
			for _, k := range keys {
				if v, ok := tbl.Lookup(me, k).Wait(me); !ok || v != pairs[k] {
					t.Errorf("rank %d: post-death lookup %#x = (%#x,%v), want (%#x,true)",
						me.ID(), k, v, ok, pairs[k])
				}
			}
			sums[me.ID()] = tbl.Checksum(me)
		})
	for _, r := range []int{0, 2} {
		if panics[r] != nil {
			t.Fatalf("survivor rank %d panicked: %v", r, panics[r])
		}
		if want := dht.ExpectedChecksum(pairs); sums[r] != want {
			t.Errorf("survivor rank %d checksum %x, want oracle %x", r, sums[r], want)
		}
	}
}

// TestDHTChaosProcBackend runs the dhtchaos acceptance program on the
// in-process backend under a kill plan: rank 2's scripted death at
// 80ms. Every survivor must finish with the checksum of the fault-free
// run (the full-contents oracle), and the ghost reports 0.
func TestDHTChaosProcBackend(t *testing.T) {
	const n, scale = 4, 96
	p, ok := Lookup("dhtchaos")
	if !ok {
		t.Fatal("dhtchaos program not registered")
	}
	plan := mustPlan(t, "kill:rank=2,at=80ms")
	sums := make([]uint64, n)
	core.Run(core.Config{
		Ranks:        n,
		SegmentBytes: p.SegBytes(n, scale),
		Fault:        plan,
	}, func(me *core.Rank) {
		sums[me.ID()] = p.Run(me, scale)
	})
	pairs := make(map[uint64]uint64)
	for r := 0; r < n; r++ {
		for i := 0; i < scale; i++ {
			k := mix(uint64(r)<<32+uint64(i))<<1 | 1
			pairs[k] = mix(k ^ 0x5851F42D4C957F2D)
		}
	}
	want := dht.ExpectedChecksum(pairs)
	for r := 0; r < n; r++ {
		if r == 2 {
			if sums[r] != 0 {
				t.Errorf("ghost rank 2 reported checksum %x, want 0", sums[r])
			}
			continue
		}
		if sums[r] != want {
			t.Errorf("survivor rank %d checksum %x, want fault-free %x", r, sums[r], want)
		}
	}
}
