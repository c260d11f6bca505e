package spmd

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/gasnet"
)

// runProg executes a registered program on the in-process backend and
// returns rank 0's checksum, after checking every rank agrees.
func runProcChecksum(t *testing.T, p Prog, n, scale int) uint64 {
	t.Helper()
	sums := make([]uint64, n)
	// One rank per host, matching the wire backend's default topology —
	// topology-sensitive programs (teams) must see identical LocalTeam
	// membership on both sides of the comparison.
	core.Run(core.Config{Ranks: n, SegmentBytes: p.SegBytes(n, scale), Nodes: HierNodes(n, 1)}, func(me *core.Rank) {
		sums[me.ID()] = p.Run(me, scale)
	})
	for r, s := range sums {
		if s != sums[0] {
			t.Fatalf("proc %s n=%d: rank %d checksum %x != rank 0 %x", p.Name, n, r, s, sums[0])
		}
	}
	return sums[0]
}

// runWireChecksum executes the same program over the TCP wire conduit
// (one goroutine per rank, separate segments, localhost sockets).
func runWireChecksum(t *testing.T, p Prog, n, scale int) uint64 {
	t.Helper()
	sums := make([]uint64, n)
	_, err := RunWireLocal(n, p.SegBytes(n, scale), core.Config{Resilient: p.Resilient}, func(me *core.Rank) {
		sums[me.ID()] = p.Run(me, scale)
	})
	if err != nil {
		t.Fatalf("wire %s n=%d: %v", p.Name, n, err)
	}
	for r, s := range sums {
		if s != sums[0] {
			t.Fatalf("wire %s n=%d: rank %d checksum %x != rank 0 %x", p.Name, n, r, s, sums[0])
		}
	}
	return sums[0]
}

// TestBackendsAgree is the acceptance gate of the conduit seam: every
// registered program must produce the identical verified checksum on
// the in-process and TCP backends at the same rank count.
func TestBackendsAgree(t *testing.T) {
	for _, p := range Progs() {
		if p.Gateway {
			// Gateway programs park until a launcher-provided gateway
			// rank broadcasts its drain; standalone they hang forever.
			continue
		}
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/n=%d", p.Name, n), func(t *testing.T) {
				scale := p.DefaultScale
				switch p.Name {
				case "gups":
					scale = 10 // keep test-sized tables
				case "dht":
					scale = 384 // keep test-sized shards
				case "dhtchaos":
					scale = 128 // fault-free here; the chaos tests kill ranks
				case "collloop":
					scale = 100 // rounds; the timing it prints is not under test
				}
				proc := runProcChecksum(t, p, n, scale)
				wire := runWireChecksum(t, p, n, scale)
				if proc != wire {
					t.Fatalf("checksum mismatch: proc %016x, wire %016x", proc, wire)
				}
			})
		}
	}
}

// TestChecksumDependsOnInputs guards against degenerate constants: the
// checksum must move when the size knob does.
func TestChecksumDependsOnInputs(t *testing.T) {
	p, _ := Lookup("ring")
	a := runProcChecksum(t, p, 2, 64)
	b := runProcChecksum(t, p, 2, 128)
	if a == b {
		t.Fatalf("ring checksum %x did not change with scale", a)
	}
}

// TestClosureOpsRejectedOnWire pins the degradation contract: closure-
// shipping operations panic with gasnet.ErrNotWireCapable when they
// target a remote rank of a wire job, while self-targeted ones work.
func TestClosureOpsRejectedOnWire(t *testing.T) {
	rejected := func(f func(me *core.Rank)) func(me *core.Rank) {
		return func(me *core.Rank) {
			defer func() {
				r := recover()
				if r == nil {
					t.Error("closure op crossed the wire without panicking")
					return
				}
				err, ok := r.(error)
				if !ok || !errors.Is(err, gasnet.ErrNotWireCapable) {
					t.Errorf("panic = %v, want ErrNotWireCapable", r)
				}
			}()
			f(me)
		}
	}
	_, err := RunWireLocal(2, 1<<20, core.Config{}, func(me *core.Rank) {
		other := 1 - me.ID()

		// Remote closure asyncs must degrade with the clear error...
		rejected(func(me *core.Rank) {
			core.Async(me, core.On(other), func(*core.Rank) {})
		})(me)
		rejected(func(me *core.Rank) {
			core.AsyncFuture(me, other, func(*core.Rank) int { return 0 })
		})(me)
		rejected(func(me *core.Rank) {
			me.AM(other, 8, func(*core.Rank) {})
		})(me)
		p := core.Allocate[uint64](me, other, 1)
		rejected(func(me *core.Rank) {
			core.RMW(me, p, func(v uint64) uint64 { return v + 1 })
		})(me)
		me.Barrier()

		// ...while the in-process fast path still works on self.
		ran := false
		core.Finish(me, func() {
			core.Async(me, core.On(me.ID()), func(*core.Rank) { ran = true })
		})
		if !ran {
			t.Errorf("rank %d: self-targeted async did not run on wire backend", me.ID())
		}
		// And the local half of RMW remains available.
		q := core.Allocate[uint64](me, me.ID(), 1)
		if got := core.RMW(me, q, func(v uint64) uint64 { return v + 41 }); got != 41 {
			t.Errorf("local RMW on wire = %d, want 41", got)
		}
		me.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRendezvousProtocol drives the launcher's address-exchange path —
// Rendezvous on the parent side, RunWireChild on the child side — with
// goroutines standing in for the spawned processes.
func TestRendezvousProtocol(t *testing.T) {
	const n = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rdvErr := make(chan error, 1)
	go func() { rdvErr <- Rendezvous(ln, n) }()

	p, _ := Lookup("ring")
	sums := make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = RunWireChild(ln.Addr().String(), rank, n,
				p.SegBytes(n, 64), core.Config{}, func(me *core.Rank) {
					sums[me.ID()] = p.Run(me, 64)
				})
		}(i)
	}
	wg.Wait()
	if err := <-rdvErr; err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("child %d: %v", r, errs[r])
		}
		if sums[r] != sums[0] {
			t.Fatalf("child %d checksum %x != child 0 %x", r, sums[r], sums[0])
		}
	}
	if want := runProcChecksum(t, p, n, 64); sums[0] != want {
		t.Fatalf("rendezvous-launched checksum %x != proc %x", sums[0], want)
	}
}

// TestWireStats checks the wire job reports sane counters: the GUPS
// update loop must show its puts.
func TestWireStats(t *testing.T) {
	p, _ := Lookup("gups")
	stats, err := RunWireLocal(2, p.SegBytes(2, 10), core.Config{}, func(me *core.Rank) {
		p.Run(me, 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range stats {
		if st.Ranks != 2 {
			t.Errorf("rank %d: Stats.Ranks = %d, want 2", r, st.Ranks)
		}
		if st.Puts == 0 {
			t.Errorf("rank %d: no puts recorded for the update loop", r)
		}
	}
}
