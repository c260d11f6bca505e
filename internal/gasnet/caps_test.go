package gasnet

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"upcxx/internal/sim"
	"upcxx/internal/transport"
)

// shmTestMem is a testMem over an externally mapped buffer whose Xor64
// is a CAS on the word itself — matching segment.Segment's, so the
// owner's path through Memory and a co-located peer's direct CAS
// through HierConduit contend on the same synchronization domain.
type shmTestMem struct {
	testMem
}

func newShmTestMem(buf []byte) *shmTestMem {
	return &shmTestMem{testMem{buf: buf, live: map[uint64]bool{}}}
}

func (m *shmTestMem) Xor64(off, val uint64) uint64 {
	p := (*uint64)(unsafe.Pointer(&m.buf[off]))
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old^val) {
			return old ^ val
		}
	}
}

// buildHierFleet assembles an n-rank hierarchical fleet in-process:
// real mmap'd files in a temp dir, real TCP between the per-host
// leaders, ppn ranks per virtual host. Each beforeAttach runs on the
// created shm fleet before any rank attaches.
func buildHierFleet(t *testing.T, n, ppn, ringBytes, segBytes int, beforeAttach ...func([]*ShmConduit)) []Conduit {
	t.Helper()
	dir := t.TempDir()
	nodes := make([]int, n)
	for r := range nodes {
		nodes[r] = r / ppn
	}
	shms := make([]*ShmConduit, n)
	for i := 0; i < n; i++ {
		node := i / ppn
		locals := ppn
		if rest := n - node*ppn; rest < locals {
			locals = rest
		}
		nodeDir := filepath.Join(dir, fmt.Sprintf("node%d", node))
		if err := os.MkdirAll(nodeDir, 0o777); err != nil {
			t.Fatal(err)
		}
		shm, err := CreateShm(nodeDir, i-node*ppn, locals, ringBytes, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		shms[i] = shm
	}
	for _, f := range beforeAttach {
		f(shms)
	}
	// Every shm file exists: attach, build, then connect — the launcher's
	// order.
	wires := make([]*WireConduit, n)
	cds := make([]Conduit, n)
	addrs := make([]string, n)
	for i := range wires {
		ep, err := transport.ListenTCP(i, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := shms[i].Attach(); err != nil {
			t.Fatal(err)
		}
		wires[i] = NewWireConduit(ep, newShmTestMem(shms[i].Seg()), WireConfig{})
		cds[i] = NewHierConduit(wires[i], shms[i], nodes)
		addrs[i] = ep.Addr()
	}
	var wg sync.WaitGroup
	for i, w := range wires {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Connect(addrs, time.Time{}); err != nil {
				t.Errorf("rank %d connect: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	t.Cleanup(func() {
		for _, c := range cds {
			c.Close()
		}
	})
	return cds
}

// TestConduitCapabilities pins, per backend, exactly which optional
// planes Capabilities advertises. This table is the single seam the
// runtime probes (no interface type asserts remain in core), so a
// backend silently losing a capability is a behavior change this test
// makes loud.
func TestConduitCapabilities(t *testing.T) {
	eng := New(sim.NewModel(sim.Local, sim.SWUPCXX, 1), 1)
	proc := NewProcGroup(eng, []Memory{newTestMem(64)})[0]

	wire := wireFleet(t, 1, 64)[0]
	resilient := wireFleetOf(t, 1, func(int) (Memory, WireConfig) {
		return newTestMem(64), WireConfig{Resilience: &ResilienceConfig{}}
	})[0]

	hier := buildHierFleet(t, 1, 1, minShmRingBytes, 1<<12)[0]

	cases := []struct {
		name                                       string
		cd                                         Conduit
		batch, resilient, counters, localty, waker bool
	}{
		{"proc", proc, false, false, false, false, false},
		{"wire", wire, true, false, true, false, true},
		{"wire resilient", resilient, true, true, true, false, true},
		{"hier", hier, true, false, true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			caps := tc.cd.Capabilities()
			check := func(plane string, got, want bool) {
				if got != want {
					t.Errorf("%s: %s advertised = %v, want %v", tc.name, plane, got, want)
				}
			}
			check("Batch", caps.Batch != nil, tc.batch)
			check("Resilient", caps.Resilient != nil, tc.resilient)
			check("Counters", caps.Counters != nil, tc.counters)
			check("Locality", caps.Locality != nil, tc.localty)
			check("Waker", caps.Waker != nil, tc.waker)
		})
	}
}

// TestHierConduitContract runs the cross-backend conduit contract over
// a 4-rank, 2-per-host hierarchical fleet: the script's puts, gets,
// xors, allocations and locks cross both the shm and the wire plane.
func TestHierConduitContract(t *testing.T) {
	const n, ppn = 4, 2
	cds := buildHierFleet(t, n, ppn, DefaultShmRingBytes, 1<<16)
	exerciseConduit(t, n, func(rank int) Conduit { return cds[rank] })
}

// TestHierConduitContractOneHost is the degenerate all-co-located
// shape: every data-plane op is a shm op, collectives have one leader.
func TestHierConduitContractOneHost(t *testing.T) {
	const n = 4
	cds := buildHierFleet(t, n, n, DefaultShmRingBytes, 1<<16)
	exerciseConduit(t, n, func(rank int) Conduit { return cds[rank] })
}
