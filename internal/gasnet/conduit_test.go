package gasnet

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"upcxx/internal/sim"
	"upcxx/internal/transport"
)

// testMem is a minimal Memory: a flat buffer with a bump allocator,
// enough to exercise every conduit operation without importing the
// segment package (which sits above gasnet in the layering).
type testMem struct {
	mu   sync.Mutex
	buf  []byte
	next uint64
	live map[uint64]bool
}

func newTestMem(n int) *testMem {
	return &testMem{buf: make([]byte, n), live: map[uint64]bool{}}
}

func (m *testMem) Read(off uint64, p []byte) {
	m.mu.Lock()
	copy(p, m.buf[off:])
	m.mu.Unlock()
}

func (m *testMem) Write(off uint64, p []byte) {
	m.mu.Lock()
	copy(m.buf[off:], p)
	m.mu.Unlock()
}

func (m *testMem) Window(off, n uint64) []byte {
	if off > uint64(len(m.buf)) || n > uint64(len(m.buf))-off {
		return nil
	}
	return m.buf[off : off+n : off+n]
}

func (m *testMem) Xor64(off, val uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(m.buf[off+uint64(i)]) << (8 * i)
	}
	v ^= val
	for i := 0; i < 8; i++ {
		m.buf[off+uint64(i)] = byte(v >> (8 * i))
	}
	return v
}

func (m *testMem) Alloc(size uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.next+size > uint64(len(m.buf)) {
		return 0, fmt.Errorf("testMem: out of memory")
	}
	off := m.next
	m.next += size
	m.live[off] = true
	return off, nil
}

func (m *testMem) Free(off uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.live[off] {
		return fmt.Errorf("testMem: bad free at %d", off)
	}
	delete(m.live, off)
	return nil
}

// allRanks is the member list of a world-wide team collective.
func allRanks(n int) []int {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return members
}

// exerciseConduit runs the same cross-rank script over any conduit
// fleet: remote put/get/xor, the same transfers non-blocking (8 B,
// 4 KiB, empty, to self, and out of range, refused), remote
// alloc/free, a contended lock, an allgather and barriers over all
// ranks. It is the contract every backend must satisfy.
func exerciseConduit(t *testing.T, n int, conduit func(rank int) Conduit) {
	t.Helper()
	world := allRanks(n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	var lockID uint64
	var ctrOff uint64 // counter word in rank 0's memory, guarded by the lock
	ready := make(chan struct{})
	le := func(p []byte) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(p[i]) << (8 * i)
		}
		return v
	}

	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := conduit(rank)
			fail := func(err error) {
				if err != nil && errs[rank] == nil {
					errs[rank] = err
				}
			}

			if c.Rank() != rank || c.Ranks() != n {
				fail(fmt.Errorf("identity: got %d/%d, want %d/%d", c.Rank(), c.Ranks(), rank, n))
			}

			// Rank 0 creates the lock and the counter word before anyone
			// uses them (the ready channel publishes both).
			if rank == 0 {
				lockID = c.LockNew()
				o, err := c.Alloc(0, 8)
				fail(err)
				ctrOff = o
				close(ready)
			} else {
				<-ready
			}

			// Remote data plane: each rank writes a tagged pattern into
			// its right neighbor's memory at a rank-specific offset, then
			// reads it back and xors it.
			right := (rank + 1) % n
			off, err := c.Alloc(right, 64)
			fail(err)
			pattern := bytes.Repeat([]byte{byte(rank + 1)}, 16)
			fail(c.Put(right, off, pattern))
			got := make([]byte, 16)
			fail(c.Get(right, off, got))
			if !bytes.Equal(got, pattern) {
				fail(fmt.Errorf("get after put: %v != %v", got, pattern))
			}
			v, err := c.Xor64(right, off, 0xFF)
			fail(err)
			var want uint64
			for i := 0; i < 8; i++ {
				want |= uint64(pattern[i]) << (8 * i)
			}
			if v != want^0xFF {
				fail(fmt.Errorf("xor64: got %x, want %x", v, want^0xFF))
			}

			// Non-blocking data plane. xfer issues one GetAsync (get) or
			// PutAsync and polls until onDone has run; its error is the
			// call's or onDone's. onDone never runs after an error
			// return, and otherwise exactly once (ran is checked again
			// after the closing barrier).
			var ran []*int
			xfer := func(get bool, to int, off uint64, p []byte) error {
				n, got := new(int), error(nil)
				ran = append(ran, n)
				onDone := func(err error) { *n++; got = err }
				var err error
				if get {
					err = c.GetAsync(to, off, p, 0, onDone)
				} else {
					err = c.PutAsync(to, off, p, 0, onDone)
				}
				if err != nil {
					*n-- // onDone must never run: checked as -1
					return err
				}
				for deadline := time.Now().Add(10 * time.Second); *n == 0 && time.Now().Before(deadline); {
					if c.Poll() == 0 {
						runtime.Gosched()
					}
				}
				return got
			}
			bulk, err := c.Alloc(right, 4096)
			fail(err)
			for _, size := range []int{8, 4096, 0} {
				src := bytes.Repeat([]byte{byte(rank + size)}, size)
				fail(xfer(false, right, bulk, src))
				dst := make([]byte, size)
				fail(xfer(true, right, bulk, dst))
				if !bytes.Equal(dst, src) {
					fail(fmt.Errorf("%d-byte GetAsync after PutAsync: the bytes differ", size))
				}
			}
			mine, err := c.Alloc(rank, 8)
			fail(err)
			fail(xfer(false, rank, mine, pattern[:8]))
			self := make([]byte, 8)
			fail(xfer(true, rank, mine, self))
			if !bytes.Equal(self, pattern[:8]) {
				fail(fmt.Errorf("GetAsync from self after PutAsync: %v, want %v", self, pattern[:8]))
			}
			for _, get := range []bool{true, false} {
				if err := xfer(get, right, 1<<40, make([]byte, 8)); err == nil || !strings.Contains(err.Error(), "refused") {
					fail(fmt.Errorf("out-of-range transfer (get %v): %v, want a refusal", get, err))
				}
			}
			fail(c.Free(right, bulk))
			fail(c.Free(rank, mine))

			// Lock-protected counter: a non-atomic read-modify-write on
			// rank 0's memory, made safe only by the conduit's lock
			// service — lost updates mean mutual exclusion failed.
			for iter := 0; iter < 5; iter++ {
				ok, err := c.LockAcquire(0, lockID, false)
				fail(err)
				if !ok {
					fail(fmt.Errorf("blocking acquire returned false"))
				}
				var w [8]byte
				fail(c.Get(0, ctrOff, w[:]))
				v := le(w[:]) + 1
				for i := 0; i < 8; i++ {
					w[i] = byte(v >> (8 * i))
				}
				fail(c.Put(0, ctrOff, w[:]))
				fail(c.LockRelease(0, lockID))
			}

			// Allgather with per-rank payload lengths (rank r contributes
			// r+1 bytes of value r).
			contrib := bytes.Repeat([]byte{byte(rank)}, rank+1)
			parts, err := c.TeamAllGather(1, world, contrib)
			fail(err)
			if len(parts) != n {
				fail(fmt.Errorf("allgather: %d parts, want %d", len(parts), n))
			} else {
				for r, p := range parts {
					if len(p) != r+1 {
						fail(fmt.Errorf("allgather part %d: %d bytes, want %d", r, len(p), r+1))
					}
				}
			}

			fail(c.TeamBarrier(2, world))
			var w [8]byte
			fail(c.Get(0, ctrOff, w[:]))
			if got, want := le(w[:]), uint64(5*n); got != want {
				fail(fmt.Errorf("lock-protected counter = %d, want %d (lost updates)", got, want))
			}
			fail(c.Free(right, off))
			fail(c.TeamBarrier(3, world))
			for i, n := range ran {
				if *n != 1 && *n != -1 {
					fail(fmt.Errorf("non-blocking transfer %d: onDone ran %d times", i, *n))
				}
			}
		}(i)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

func TestProcConduitContract(t *testing.T) {
	const n = 4
	eng := New(sim.NewModel(true, sim.Local, sim.SWUPCXX, n), n)
	mems := make([]Memory, n)
	for i := range mems {
		mems[i] = newTestMem(1 << 16)
	}
	cds := NewProcGroup(eng, mems)
	exerciseConduit(t, n, func(rank int) Conduit { return cds[rank] })
}

func TestWireConduitContract(t *testing.T) {
	const n = 4
	cds := wireFleet(t, n, 1<<16)
	exerciseConduit(t, n, func(rank int) Conduit { return cds[rank] })
}

// TestWireConduitBigTransfer moves a payload large enough to span many
// TCP segments through Put/Get and checks integrity.
func TestWireConduitBigTransfer(t *testing.T) {
	cds := wireFleet(t, 2, 4<<20)

	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	done := make(chan struct{})
	go func() {
		// Rank 1 services requests until rank 0 finishes.
		for {
			select {
			case <-done:
				return
			default:
				cds[1].Poll()
			}
		}
	}()
	if err := cds[0].Put(1, 0, big); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(big))
	if err := cds[0].Get(1, 0, got); err != nil {
		t.Fatal(err)
	}
	close(done)
	if !bytes.Equal(got, big) {
		t.Fatal("1 MiB round trip corrupted payload")
	}
}

// TestWireConduitHugeAllGather pushes a collective whose contribution —
// and whose gathered table — exceed one transport frame, exercising the
// fragmentation path (contributions to rank 0, table broadcast back).
func TestWireConduitHugeAllGather(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~100 MiB")
	}
	const n = 2
	cds := wireFleet(t, n, 64)
	var wg sync.WaitGroup

	big := transport.MaxPayload + (1 << 20) // one fragment won't fit
	contribs := make([][]byte, n)
	for rank := range contribs {
		p := make([]byte, big)
		for i := 0; i < len(p); i += 4096 {
			p[i] = byte(i*3 + rank) // sparse pattern: cheap to fill, catches misassembly
		}
		p[len(p)-1] = byte(rank + 1)
		contribs[rank] = p
	}
	tables := make([][][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], errs[i] = cds[i].TeamAllGather(1, allRanks(n), contribs[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("rank %d allgather: %v", i, errs[i])
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(tables[i][r], contribs[r]) {
				t.Fatalf("rank %d sees corrupt contribution from %d", i, r)
			}
		}
	}
}
