package gasnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// shmRec is one record as push lays it out in a ring: header, payload,
// padding to 8 bytes. plen is the length word, which a torn or hostile
// record need not match to the payload it carries.
func shmRec(plen uint32, handler uint16, arg uint64, payload []byte) []byte {
	rec := make([]byte, shmRecHdr, shmRecHdr+len(payload)+shmAlignMask)
	binary.LittleEndian.PutUint32(rec[0:], plen)
	binary.LittleEndian.PutUint16(rec[4:], handler)
	binary.LittleEndian.PutUint64(rec[8:], arg)
	rec = append(rec, payload...)
	for len(rec)%8 != 0 {
		rec = append(rec, 0)
	}
	return rec
}

// shmMsg is one message a handler received.
type shmMsg struct {
	handler uint16
	arg     uint64
	payload []byte
}

// FuzzShmRing writes arbitrary bytes into the ring from local rank 1 to
// rank 0 as a producer would have left them, publishes an arbitrary
// tail and polls rank 0. Handlers 1 to 3 are registered. Poll must
// deliver exactly the messages a walk of the same bytes by the rules
// push writes by finds before the first record those rules exclude — a
// tail more than a ring ahead, a payload past the quarter-ring fragment
// bound (a torn length word), a record past the tail, an unregistered
// handler — and stop there, with that record left in the ring and a
// *ShmRingError that the next Park returns. Never a panic, an
// allocation past the fragment bound, or a loop that does not end.
func FuzzShmRing(f *testing.F) {
	well := append(shmRec(3, 1, 7, []byte{1, 2, 3}), shmRec(shmMoreFlag|2, 2, 8, []byte{4, 5})...)
	well = append(well, shmRec(1, 2, 8, []byte{6})...)
	f.Add(uint64(0), uint32(len(well)), well)
	f.Add(uint64(minShmRingBytes-16), uint32(len(well)), well) // wraps
	torn := shmRec(1<<31-1, 1, 0, nil)                         // a length word of 2^31-1 bytes
	f.Add(uint64(0), uint32(len(torn)), torn)
	past := shmRec(100, 1, 0, make([]byte, 40)) // runs past the 64 bytes published
	f.Add(uint64(0), uint32(64), past)
	unreg := append(shmRec(0, 3, 1, nil), shmRec(4, 77, 2, []byte{1, 2, 3, 4})...)
	f.Add(uint64(0), uint32(len(unreg)), unreg)
	f.Add(uint64(8), uint32(minShmRingBytes+8), well) // more than a ring published
	f.Fuzz(func(t *testing.T, start uint64, fill uint32, data []byte) {
		const ringBytes = minShmRingBytes
		c := buildShmFleet(t, 2, ringBytes, 64)[0]
		var got []shmMsg
		for h := uint16(1); h <= 3; h++ {
			c.Register(h, func(from int, arg uint64, payload []byte) {
				if from != 1 {
					t.Fatalf("message from local rank %d, want 1", from)
				}
				got = append(got, shmMsg{h, arg, payload})
			})
		}
		start &^= shmAlignMask // the consumer only ever moves head by whole records
		r := c.ring(0, 1)
		data = data[:min(len(data), ringBytes)]
		ringCopyIn(r.data, start, data)
		atomic.StoreUint64(r.head(), start)
		atomic.StoreUint64(r.tail(), start+uint64(fill))

		// The reference walk, over a copy of the ring.
		ring := slices.Clone(r.data)
		at := func(pos uint64, n int) []byte {
			p := make([]byte, n)
			ringCopyOut(p, ring, pos)
			return p
		}
		var want []shmMsg
		var part []byte
		pos, end, bad := start, start+uint64(fill), false
		for pos != end {
			hdr := at(pos, shmRecHdr)
			ln := binary.LittleEndian.Uint32(hdr)
			plen := int(ln &^ shmMoreFlag)
			h := binary.LittleEndian.Uint16(hdr[4:])
			rec := uint64(shmRecHdr + (plen+7)/8*8)
			if end-pos > ringBytes || plen > ringBytes/4 || rec > end-pos || h < 1 || h > 3 {
				bad = true
				break
			}
			part = append(part, at(pos+shmRecHdr, plen)...)
			pos += rec
			if ln&shmMoreFlag == 0 {
				want = append(want, shmMsg{h, binary.LittleEndian.Uint64(hdr[8:]), part})
				part = nil
			}
		}

		for c.Poll() > 0 {
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d messages, want %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.handler != w.handler || g.arg != w.arg || !bytes.Equal(g.payload, w.payload) {
				t.Fatalf("message %d: handler %d arg %d payload %x, want %d %d %x", i, g.handler, g.arg, g.payload, w.handler, w.arg, w.payload)
			}
		}
		if head := atomic.LoadUint64(r.head()); head != pos {
			t.Fatalf("head at %d after the poll, want %d", head, pos)
		}
		var ringErr *ShmRingError
		if isBad := errors.As(c.err, &ringErr); isBad != bad {
			t.Fatalf("kept error %v, want a malformed record reported: %v", c.err, bad)
		}
		if !bad {
			return
		}
		if c.Poll() != 0 || atomic.LoadUint64(r.head()) != pos {
			t.Fatal("a Poll after the malformed record read on")
		}
		err := c.Park(func() bool { return false }, func(armed func() bool) error {
			if !armed() {
				t.Fatal("the armed predicate was false with a ring error kept: the park would block")
			}
			return nil
		})
		if err != c.err {
			t.Fatalf("Park returned %v, want the kept %v", err, c.err)
		}
	})
}

// TestShmMalformedRecordEndsWait: a record for a handler nobody
// registered, published into a parked rank's ring, ends that rank's
// wait with a *ShmRingError naming the producer — not a panic — and
// every later wait returns the same error.
func TestShmMalformedRecordEndsWait(t *testing.T) {
	hs := hierPair(t, minShmRingBytes)
	done := make(chan error, 1)
	go func() { done <- hs[0].WaitFor(func() bool { return false }) }()
	awaitParked(t, hs[0])
	r := hs[1].shm.ring(0, 1)
	rec := shmRec(0, 200, 0, nil)
	tail := atomic.LoadUint64(r.tail())
	ringCopyIn(r.data, tail, rec)
	atomic.StoreUint64(r.tail(), tail+uint64(len(rec)))
	hs[1].shm.ringIfArmed(0)
	err := within(t, "rank parked on a malformed record", done)
	var ringErr *ShmRingError
	if !errors.As(err, &ringErr) || ringErr.Local != 1 {
		t.Fatalf("wait returned %v, want a *ShmRingError from local rank 1", err)
	}
	if again := hs[0].WaitFor(func() bool { return true }); again != err {
		t.Errorf("the next wait returned %v, want the kept %v", again, err)
	}
}
