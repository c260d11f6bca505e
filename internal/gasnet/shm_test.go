package gasnet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// buildShmFleet maps a fleet of co-located ShmConduits over one shared
// temp-dir file set, with a deliberately tiny ring so the stress tests
// exercise wraparound, backpressure (full-ring waits) and record
// fragmentation, not just the easy path. No composer installs the wait
// seam here, so the fleet gets the simplest one that is correct without
// a wire: a full-ring wait that polls (nobody parks, so nobody rings).
// Each beforeAttach runs on the created fleet before any rank attaches.
func buildShmFleet(t *testing.T, n, ringBytes, segBytes int, beforeAttach ...func([]*ShmConduit)) []*ShmConduit {
	t.Helper()
	dir := t.TempDir()
	cds := make([]*ShmConduit, n)
	for i := 0; i < n; i++ {
		shm, err := CreateShm(dir, i, n, ringBytes, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		shm.wait = func(pred func() bool) error {
			for !pred() {
				shm.Poll()
				runtime.Gosched()
			}
			return nil
		}
		cds[i] = shm
	}
	for _, f := range beforeAttach {
		f(cds)
	}
	for _, shm := range cds {
		if err := shm.Attach(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, shm := range cds {
			shm.Close()
		}
	})
	return cds
}

// TestShmRingStress hammers every pairwise ring from all ranks at once
// — mixed payload sizes from empty through multi-fragment, tiny rings
// forcing wraps and full-ring backpressure — and verifies every byte
// and the delivery ordering per (sender, receiver) pair. Run with
// -race this doubles as the memory-model check on the mapped
// head/tail publication protocol.
func TestShmRingStress(t *testing.T) {
	const (
		n       = 4
		ring    = minShmRingBytes // 4 KiB: maxFrag is 1 KiB, so big sends fragment
		rounds  = 300
		maxSize = 3*minShmRingBytes/4 + 17 // 3 fragments
	)
	cds := buildShmFleet(t, n, ring, 1<<12)

	pattern := func(from, to, seq, i int) byte {
		return byte(from*131 + to*31 + seq*7 + i)
	}

	type recvState struct {
		nextSeq [n]int
		got     [n]int
	}
	states := make([]recvState, n)
	errs := make([]error, n)

	for me := 0; me < n; me++ {
		st := &states[me]
		mine := me
		cds[me].Register(9, func(from int, arg uint64, payload []byte) {
			seq := int(arg)
			if seq != st.nextSeq[from] {
				errs[mine] = fmt.Errorf("rank %d: from %d: seq %d, want %d (reordered)", mine, from, seq, st.nextSeq[from])
				return
			}
			st.nextSeq[from]++
			st.got[from]++
			wantLen := (seq * 37) % maxSize
			if len(payload) != wantLen {
				errs[mine] = fmt.Errorf("rank %d: from %d seq %d: %d bytes, want %d", mine, from, seq, len(payload), wantLen)
				return
			}
			for i, b := range payload {
				if b != pattern(from, mine, seq, i) {
					errs[mine] = fmt.Errorf("rank %d: from %d seq %d: byte %d corrupt", mine, from, seq, i)
					return
				}
			}
		})
	}

	var wg sync.WaitGroup
	for me := 0; me < n; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			c := cds[me]
			for seq := 0; seq < rounds; seq++ {
				size := (seq * 37) % maxSize
				for to := 0; to < n; to++ {
					if to == me {
						continue
					}
					p := make([]byte, size)
					for i := range p {
						p[i] = pattern(me, to, seq, i)
					}
					c.Send(to, 9, uint64(seq), p)
				}
				c.Poll()
			}
			// Drain until everyone's full stream has arrived.
			st := &states[me]
			for {
				done := true
				for from := 0; from < n; from++ {
					if from != me && st.got[from] < rounds {
						done = false
					}
				}
				if done || errs[me] != nil {
					return
				}
				c.Poll()
			}
		}(me)
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Error(err)
		}
		for from := 0; from < n; from++ {
			if from != me && states[me].got[from] != rounds {
				t.Errorf("rank %d: received %d of %d messages from %d", me, states[me].got[from], rounds, from)
			}
		}
	}
}

// TestShmCounters pins the metering names the hierarchical conduit
// merges into its Counters map.
func TestShmCounters(t *testing.T) {
	cds := buildShmFleet(t, 2, minShmRingBytes, 1<<12)
	got := 0
	cds[1].Register(3, func(from int, arg uint64, payload []byte) { got++ })
	cds[0].Send(1, 3, 7, []byte("hello"))
	for got == 0 {
		cds[1].Poll()
	}
	c0, c1 := cds[0].Counters(), cds[1].Counters()
	if c0["shm_tx_msgs"] != 1 || c0["shm_tx_bytes"] == 0 {
		t.Errorf("sender counters = %v, want 1 tx msg with bytes", c0)
	}
	if c1["shm_rx_msgs"] != 1 || c1["shm_rx_bytes"] == 0 {
		t.Errorf("receiver counters = %v, want 1 rx msg with bytes", c1)
	}
}

// TestShmSegmentVisibility checks the whole point of the shm plane:
// bytes stored through one rank's segment view are immediately visible
// through every peer's mapping.
func TestShmSegmentVisibility(t *testing.T) {
	cds := buildShmFleet(t, 3, minShmRingBytes, 1<<12)
	seg := cds[1].Seg()
	copy(seg[64:], []byte("shared-page"))
	for _, reader := range []int{0, 2} {
		peer := cds[reader].PeerSeg(1)
		if string(peer[64:64+11]) != "shared-page" {
			t.Fatalf("rank %d sees %q through its mapping of rank 1's segment", reader, peer[64:64+11])
		}
	}
}
