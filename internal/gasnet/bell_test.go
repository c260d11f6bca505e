package gasnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"upcxx/internal/transport"
)

// The doorbell's carriers: a direct wake between ranks of one process,
// a FIFO per rank beside its shm file between processes. The protocol
// that decides when to ring is park_test.go's; here are what a ring
// does when it cannot be delivered, the descriptors' lifecycle, what is
// left on the wire once bells are off it, and the one path no
// in-process test takes — a bell between two OS processes.

// foreignNonces stamps every rank's header with a nonce that is not
// this process's, so that each rank Attached afterwards takes its peers
// for other processes and rings them through their FIFOs — the carrier
// the FIFO tests below are about, which an in-process fleet would
// otherwise not take.
func foreignNonces(cds []*ShmConduit) {
	for _, c := range cds {
		putU64(c.files[c.me][shmProcOff:], shmProc+1)
	}
}

// nudge returns a wake for ShmConduit.Listen that never blocks: it
// leaves one token in ch (capacity 1) if there is none.
func nudge(ch chan struct{}) func() {
	return func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// chanPark gives a bare ShmConduit the composer's two seams without a
// wire: its doorbell reader feeds a channel, and every wait parks on it.
func chanPark(c *ShmConduit) {
	ch := make(chan struct{}, 1)
	c.Listen(nudge(ch))
	c.wait = func(pred func() bool) error {
		return c.Park(pred, func(armed func() bool) error {
			for !armed() {
				select {
				case <-ch:
				case <-time.After(parkDeadline):
					return fmt.Errorf("local rank %d: armed and blocked, and no bell came", c.me)
				}
			}
			return nil
		})
	}
}

// awaitCounter waits for c's named counter to read want.
func awaitCounter(t *testing.T, c *ShmConduit, name string, want float64) {
	t.Helper()
	for deadline := time.Now().Add(parkDeadline); c.Counters()[name] != want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want %v", name, c.Counters()[name], want)
		}
	}
}

// TestBellLost: ringing a rank whose reader is gone — it closed its
// conduit armed, or it was gone before we attached — returns, is
// counted, and kills nobody (an EPIPE write raises SIGPIPE).
func TestBellLost(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before bool // the peer closes before we attach (ENXIO) instead of after (EPIPE)
	}{{"closed-after-attach", false}, {"gone-before-attach", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var cds [2]*ShmConduit
			for i := range cds {
				c, err := CreateShm(dir, i, 2, minShmRingBytes, 1<<12)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				cds[i] = c
			}
			foreignNonces(cds[:])
			if tc.before {
				cds[1].Close()
			}
			if err := cds[0].Attach(); err != nil {
				t.Fatal(err)
			}
			cds[1].Close()
			// The peer died armed: its word is still set in our mapping.
			atomic.StoreUint32(cds[0].wake(1), 1)
			cds[0].Send(1, 9, 0, nil)
			c := cds[0].Counters()
			if c["shm_bells_tx"] != 1 || c["shm_bells_lost"] != 1 {
				t.Errorf("rang a dead peer: shm_bells_tx %v, shm_bells_lost %v, want 1 and 1", c["shm_bells_tx"], c["shm_bells_lost"])
			}
		})
	}
}

// TestBellFullFIFO: a peer that never reads its bell lets the FIFO fill
// (64 KiB on Linux); every ring past that is dropped — a wake is queued
// already — and none blocks or counts as lost.
func TestBellFullFIFO(t *testing.T) {
	cds := buildShmFleet(t, 2, minShmRingBytes, 1<<12, foreignNonces)
	queued := 0
	for {
		_, err := syscall.Write(cds[0].bellTx[1], []byte{0})
		if err == syscall.EAGAIN {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		queued++
	}
	for i := 0; i < 1000; i++ {
		cds[0].ringBell(1)
	}
	if lost := cds[0].Counters()["shm_bells_lost"]; lost != 0 {
		t.Errorf("%v bells counted lost on a FIFO that is only full", lost)
	}
	woken := make(chan struct{}, 1)
	cds[1].Listen(nudge(woken))
	within(t, "wake from the queued bells", woken)
	awaitCounter(t, cds[1], "shm_bells_rx", float64(queued))
}

// TestBellLifecycle: a ring reaches the listener's wake; Close ends the
// reader goroutine and stays idempotent; and CreateShm replaces
// whatever a crashed job left under the bell's name.
func TestBellLifecycle(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(bellPath(dir, 0), []byte("stale"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(bellPath(dir, 1), 0o400); err != nil {
		t.Fatal(err)
	}
	var cds [2]*ShmConduit
	for i := range cds {
		c, err := CreateShm(dir, i, 2, minShmRingBytes, 1<<12)
		if err != nil {
			t.Fatalf("local rank %d: %v", i, err)
		}
		defer c.Close()
		cds[i] = c
	}
	foreignNonces(cds[:])
	for i := range cds {
		if fi, err := os.Stat(bellPath(dir, i)); err != nil || fi.Mode() != os.ModeNamedPipe|0o600 {
			t.Fatalf("local rank %d's stale bell was not replaced by a FIFO of its own: %v, %v", i, fi, err)
		}
	}
	for _, c := range cds {
		if err := c.Attach(); err != nil {
			t.Fatal(err)
		}
	}
	woken := make(chan struct{}, 1)
	cds[0].Listen(nudge(woken))
	cds[1].ringBell(0)
	within(t, "wake", woken)
	awaitCounter(t, cds[0], "shm_bells_rx", 1)

	for _, c := range cds {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	within(t, "reader goroutine exit", cds[0].BellReaderDone())
	if err := cds[0].Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestBellNeverBlocks: a bell between two ranks of one process is a
// call into the peer's TCPEndpoint.Wake, made from inside the ringer's
// Send or Poll. Two ranks whose inboxes are full ring each other from
// shm handlers: both rings return at once — a Wake that waited for room
// would leave each rank waiting on the other — and both ranks still
// wake for every record after. A ring to a closed peer of this process
// is counted lost, as TestBellLost pins for EPIPE on the FIFO.
func TestBellNeverBlocks(t *testing.T) {
	t.Run("full-inboxes", func(t *testing.T) {
		hs := hierPair(t, minShmRingBytes)
		const filler = 200 // a wire handler id no conduit uses
		var got [2]int
		var bad [2]error
		for me, h := range hs {
			seqHandler(h, &got[me], &bad[me])
			// Handler 10 answers with record 0 of handler 9, ringing the
			// sender if it is armed.
			h.shm.Register(10, func(from int, _ uint64, _ []byte) { h.shm.Send(from, 9, 0, nil) })
			h.wire.tep.Register(filler, func(*transport.TCPEndpoint, transport.Message) {})
			for range transport.InboxSlots {
				if err := h.wire.tep.Send(transport.Message{To: int32(me), Handler: filler}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Each rank has a record of handler 10 waiting, and is armed as
		// if parked: the answer its handler sends the other way rings.
		for me, h := range hs {
			h.shm.Send(1-me, 10, 0, nil)
		}
		for me, h := range hs {
			atomic.StoreUint32(h.shm.wake(me), 1)
		}
		rang := make(chan struct{}, 2)
		for _, h := range hs {
			go func() {
				h.shm.Poll()
				rang <- struct{}{}
			}()
		}
		for range hs {
			within(t, "a ring into a full inbox", rang)
		}
		for me, h := range hs {
			if c := h.Counters(); c["shm_bells_tx"] != 1 || c["shm_bells_rx"] != 1 {
				t.Fatalf("rank %d: shm_bells_tx %v, shm_bells_rx %v, want 1 and 1", me, c["shm_bells_tx"], c["shm_bells_rx"])
			}
		}
		const records = 1000
		runRanks(t, func(me int) error {
			h := hs[me]
			for i := 0; i < records; i++ {
				if me == 0 && i > 0 {
					h.shm.Send(1, 9, uint64(i), nil)
				}
				if err := h.WaitFor(func() bool { return got[me] > i }); err != nil {
					return err
				}
				if me == 1 && i > 0 {
					h.shm.Send(0, 9, uint64(i), nil)
				}
			}
			return bad[me]
		})
		for me, h := range hs {
			if lost := h.Counters()["shm_bells_lost"]; lost != 0 {
				t.Errorf("rank %d lost %v bells to a live peer", me, lost)
			}
		}
	})
	t.Run("closed-peer", func(t *testing.T) {
		cds := buildShmFleet(t, 2, minShmRingBytes, 1<<12)
		cds[1].Listen(nudge(make(chan struct{}, 1)))
		cds[1].Close()
		// The peer closed armed: its word is still set in our mapping.
		atomic.StoreUint32(cds[0].wake(1), 1)
		cds[0].Send(1, 9, 0, nil)
		c := cds[0].Counters()
		if c["shm_bells_tx"] != 1 || c["shm_bells_lost"] != 1 {
			t.Errorf("rang a closed peer: shm_bells_tx %v, shm_bells_lost %v, want 1 and 1", c["shm_bells_tx"], c["shm_bells_lost"])
		}
	})
}

// TestBellInProcessPingPong bounces records between two ranks of one
// process with no poll budget. Every wait parks; every bell is a call,
// received (shm_bells_rx) before the ringer's Send returns, so the two
// counts agree exactly with no reader to wait for; and neither rank
// started a FIFO reader.
func TestBellInProcessPingPong(t *testing.T) {
	const records = 10_000
	hs := hierPair(t, DefaultShmRingBytes)
	var got [2]int
	var bad [2]error
	for me, h := range hs {
		seqHandler(h, &got[me], &bad[me])
	}
	runRanks(t, func(me int) error {
		h := hs[me]
		for i := 0; i < records/2; i++ {
			if me == 0 {
				h.shm.Send(1, 9, uint64(i), nil)
			}
			if err := h.WaitFor(func() bool { return got[me] > i }); err != nil {
				return err
			}
			if me == 1 {
				h.shm.Send(0, 9, uint64(i), nil)
			}
		}
		return bad[me]
	})
	for me, h := range hs {
		c, peer := h.Counters(), hs[1-me].Counters()
		if c["shm_parks"] != records/2 {
			t.Errorf("rank %d parked %v times in %d waits with no poll budget", me, c["shm_parks"], records/2)
		}
		if c["shm_bells_tx"] == 0 || c["shm_bells_tx"] != peer["shm_bells_rx"] {
			t.Errorf("rank %d rang %v bells, rank %d received %v", me, c["shm_bells_tx"], 1-me, peer["shm_bells_rx"])
		}
		if c["shm_bells_lost"] != 0 {
			t.Errorf("rank %d lost %v bells to a live peer", me, c["shm_bells_lost"])
		}
		if h.shm.BellReaderDone() != nil {
			t.Errorf("rank %d, whose only peer shares its process, started a FIFO reader", me)
		}
	}
}

// TestHierCollectiveFrameBudget counts what a collective still puts on
// the wire at 2x2 now that doorbells are off it: one dissemination
// token per leader for a barrier, one blob up and one table down for an
// allgather — two frames — and nothing at all between two ranks of one
// host.
func TestHierCollectiveFrameBudget(t *testing.T) {
	const n, ppn, rounds = 4, 2, 1000
	cds := buildHierFleet(t, n, ppn, 1<<16, 1<<12)
	world := allRanks(n)
	body := func(me int, cd Conduit) error {
		for i := 0; i < rounds; i++ {
			if err := cd.TeamBarrier(uint64(2*i+1), world); err != nil {
				return err
			}
			slots, err := cd.TeamAllGather(uint64(2*i+2), world, []byte{byte(me), byte(i)})
			if err != nil {
				return err
			}
			for r, s := range slots {
				if !bytes.Equal(s, []byte{byte(r), byte(i)}) {
					return fmt.Errorf("rank %d round %d: slot %d = %v", me, i, r, s)
				}
			}
		}
		return nil
	}
	done := make(chan error, n)
	for me, cd := range cds {
		go func() { done <- body(me, cd) }()
	}
	for range cds {
		if err := within(t, "rank body", done); err != nil {
			t.Fatal(err)
		}
	}
	var cs [n]map[string]float64
	var frames, bells float64
	for r, cd := range cds {
		cs[r] = cd.(*HierConduit).Counters()
		frames += cs[r]["wire_tx_frames"]
		bells += cs[r]["shm_bells_tx"]
		if lost := cs[r]["shm_bells_lost"]; lost != 0 {
			t.Errorf("rank %d lost %v bells", r, lost)
		}
	}
	if per := frames / (2 * rounds); per > 2.05 {
		t.Errorf("%.3f wire frames per collective, want <= 2.05", per)
	}
	if bells == 0 {
		t.Error("no bell rung in 2000 collectives: the waits never parked, and this test counted nothing")
	}
	// Ranks 1 and 3 are not leaders: every frame they sent or received
	// would have been to or from their own host.
	for _, r := range []int{1, 3} {
		if tx, rx := cs[r]["wire_tx_frames"], cs[r]["wire_rx_frames"]; tx != 0 || rx != 0 {
			t.Errorf("rank %d, not a leader, sent %v and received %v wire frames", r, tx, rx)
		}
	}
	for _, p := range [][2]int{{0, 2}, {2, 0}} {
		if tx, rx := cs[p[0]]["wire_tx_frames"], cs[p[1]]["wire_rx_frames"]; tx != rx {
			t.Errorf("leader %d sent %v frames, leader %d received %v: some went elsewhere", p[0], tx, p[1], rx)
		}
	}
}

// bellPeerEnv, when set, makes TestBellAcrossProcesses run as the peer:
// local rank 1 of the shm directory it names.
const bellPeerEnv = "UPCXX_TEST_BELL_PEER_DIR"

const bellRoundTrips = 5000 // 10,000 records

// bellPingPong is one side of the cross-process ping-pong: no poll
// phase, so every wait arms, blocks and is woken by a byte the other
// process wrote.
func bellPingPong(c *ShmConduit) error {
	got, bad := 0, error(nil)
	c.Register(9, func(_ int, arg uint64, _ []byte) {
		if arg != uint64(got) && bad == nil {
			bad = fmt.Errorf("local rank %d: record %d arrived in place of %d", c.me, arg, got)
		}
		got++
	})
	chanPark(c)
	peer := 1 - c.me
	for i := 0; i < bellRoundTrips; i++ {
		if c.me == 0 {
			c.Send(peer, 9, uint64(i), nil)
		}
		if err := c.wait(func() bool { return got > i }); err != nil {
			return err
		}
		if c.me == 1 {
			c.Send(peer, 9, uint64(i), nil)
		}
	}
	if c.PeersAreGoroutines() {
		return errors.New("PeersAreGoroutines() = true with the peer in another process")
	}
	if parks := c.Counters()["shm_parks"]; parks != bellRoundTrips {
		return fmt.Errorf("local rank %d parked %v times in %d waits with no poll phase", c.me, parks, bellRoundTrips)
	}
	return bad
}

// TestBellAcrossProcesses runs the test binary a second time as the
// peer: two OS processes create and attach in one directory and bounce
// 10,000 records through Park. It is the launcher's multi-process path
// (upcxx-run -procs-per-node) at the size of a unit test.
func TestBellAcrossProcesses(t *testing.T) {
	if dir := os.Getenv(bellPeerEnv); dir != "" {
		bellPeer(t, dir)
		return
	}
	dir := t.TempDir()
	c, err := CreateShm(dir, 0, 2, minShmRingBytes, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*parkDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestBellAcrossProcesses$")
	cmd.Env = append(os.Environ(), bellPeerEnv+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { // a failure below must not leave the peer waiting for us
		cancel()
		cmd.Wait()
	}()
	lines := bufio.NewScanner(out)

	// The launcher's rendezvous in one line: the peer has created its
	// files (and attached ours) once it says so.
	if !lines.Scan() || lines.Text() != "attached" {
		t.Fatalf("peer said %q (%v), want \"attached\"", lines.Text(), lines.Err())
	}
	if err := c.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := bellPingPong(c); err != nil {
		t.Fatal(err)
	}
	var peerTx float64
	if !lines.Scan() {
		t.Fatalf("peer exited without reporting its bells: %v", lines.Err())
	}
	if _, err := fmt.Sscanf(lines.Text(), "bells_tx=%g", &peerTx); err != nil {
		t.Fatalf("peer said %q: %v", lines.Text(), err)
	}
	for lines.Scan() { // the test binary's own "PASS"
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("peer process: %v", err)
	}
	if peerTx == 0 {
		t.Error("the peer never rang: no wake crossed the process boundary")
	}
	awaitCounter(t, c, "shm_bells_rx", peerTx)
	if lost := c.Counters()["shm_bells_lost"]; lost != 0 {
		t.Errorf("%v bells lost to a live peer", lost)
	}
}

func bellPeer(t *testing.T, dir string) {
	c, err := CreateShm(dir, 1, 2, minShmRingBytes, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Attach(); err != nil {
		t.Fatal(err)
	}
	fmt.Println("attached")
	if err := bellPingPong(c); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("bells_tx=%v\n", c.Counters()["shm_bells_tx"])
}
