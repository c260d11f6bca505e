package gasnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The wake protocol (ShmConduit.Park / ringIfArmed) and the park built
// on it (HierConduit.WaitFor). Nothing here sleeps to order events:
// goroutines hand each other channels, and time appears only as the
// deadline after which a hang is reported as a failure.

const parkDeadline = 20 * time.Second

// within fails the test if ch does not deliver before the deadline.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(parkDeadline):
		t.Fatalf("%s: nothing after %v (lost wake-up?)", what, parkDeadline)
		panic("unreachable")
	}
}

// parkRig is a fleet of bare ShmConduits whose bell seam counts and
// signals a channel instead of writing to a FIFO, and whose blocking
// wait the test steps by hand.
type parkRig struct {
	cds  []*ShmConduit
	rung []atomic.Int64  // bells delivered to each rank
	bell []chan struct{} // the doorbell itself
}

func newParkRig(t *testing.T, n int) *parkRig {
	r := &parkRig{
		cds:  buildShmFleet(t, n, minShmRingBytes, 1<<12),
		rung: make([]atomic.Int64, n),
		bell: make([]chan struct{}, n),
	}
	for i := range r.bell {
		// Room for more bells than any test here may ring before the
		// waiter looks: a full channel would block the publisher inside
		// Send and turn a protocol bug (a second bell) into a hang.
		r.bell[i] = make(chan struct{}, 8)
	}
	for _, c := range r.cds {
		c.bell = func(local int) {
			r.rung[local].Add(1)
			r.bell[local] <- struct{}{}
		}
	}
	return r
}

// parked is one Park in progress on a goroutine of its own.
type parked struct {
	// armed delivers each time the armed predicate has come back false:
	// the wake word is set, the rings were empty, the predicate false.
	// The waiter then holds still until the test sends on block, and
	// only then blocks on its doorbell — the gap a lost wake-up hides in.
	armed chan struct{}
	block chan struct{}
	done  chan error
}

func (r *parkRig) park(w int, pred func() bool) *parked {
	p := &parked{armed: make(chan struct{}), block: make(chan struct{}), done: make(chan error, 1)}
	go func() {
		p.done <- r.cds[w].Park(pred, func(armed func() bool) error {
			for !armed() {
				p.armed <- struct{}{}
				<-p.block
				select {
				case <-r.bell[w]:
				case <-time.After(parkDeadline):
					return fmt.Errorf("rank %d: armed and blocked, and no bell came", w)
				}
			}
			return nil
		})
	}()
	return p
}

// counter registers handler 9 on rank w and returns the count of
// messages it has received (read it only from rank w's predicate).
func (r *parkRig) counter(w int) *int {
	got := new(int)
	r.cds[w].Register(9, func(int, uint64, []byte) { *got++ })
	return got
}

func (r *parkRig) expectBells(t *testing.T, w int, want int64) {
	t.Helper()
	if got := r.rung[w].Load(); got != want {
		t.Errorf("rank %d was rung %d times, want exactly %d", w, got, want)
	}
	var sent float64
	for _, c := range r.cds {
		sent += c.Counters()["shm_bells_tx"]
	}
	if sent != float64(want) {
		t.Errorf("shm_bells_tx sums to %v, want exactly %d", sent, want)
	}
	if got := atomic.LoadUint32(r.cds[w].wake(w)); got != 0 {
		t.Errorf("rank %d's wake word is %d after its park returned, want 0", w, got)
	}
}

// TestParkPublishBeforeArm: the record is in the ring before the waiter
// arms, so the re-poll finds it; nobody blocks and nobody rings.
func TestParkPublishBeforeArm(t *testing.T) {
	r := newParkRig(t, 2)
	got := r.counter(0)
	r.cds[1].Send(0, 9, 0, nil)
	p := r.park(0, func() bool { return *got == 1 })
	select {
	case <-p.armed:
		t.Fatal("the waiter was about to block with a record in its ring")
	case err := <-p.done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(parkDeadline):
		t.Fatal("park did not return")
	}
	r.expectBells(t, 0, 0)
}

// TestParkPublishBetweenArmAndBlock: the record lands after the waiter
// has armed and re-polled but before it blocks — the window the wake
// word exists for. The publisher must see the word and ring, once.
func TestParkPublishBetweenArmAndBlock(t *testing.T) {
	r := newParkRig(t, 2)
	got := r.counter(0)
	p := r.park(0, func() bool { return *got == 1 })
	within(t, "arming", p.armed)
	r.cds[1].Send(0, 9, 0, nil)
	if n := r.rung[0].Load(); n != 1 {
		t.Fatalf("publish into an armed rank rang %d bells, want 1", n)
	}
	p.block <- struct{}{}
	if err := within(t, "park", p.done); err != nil {
		t.Fatal(err)
	}
	r.expectBells(t, 0, 1)
}

// TestParkPublishAfterBlock: the waiter has been told to block before
// the record is published; the bell is what gets it out.
func TestParkPublishAfterBlock(t *testing.T) {
	r := newParkRig(t, 2)
	got := r.counter(0)
	p := r.park(0, func() bool { return *got == 1 })
	within(t, "arming", p.armed)
	p.block <- struct{}{}
	r.cds[1].Send(0, 9, 0, nil)
	if err := within(t, "park", p.done); err != nil {
		t.Fatal(err)
	}
	r.expectBells(t, 0, 1)
}

// TestParkTwoProducersOneBell: two neighbours publish into one armed
// rank at once. Both see the word set; the CAS lets exactly one ring.
func TestParkTwoProducersOneBell(t *testing.T) {
	r := newParkRig(t, 3)
	got := r.counter(0)
	p := r.park(0, func() bool { return *got == 2 })
	within(t, "arming", p.armed)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, from := range []int{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r.cds[from].Send(0, 9, 0, nil)
		}()
	}
	close(start)
	wg.Wait()
	// The waiter has not moved since it armed, so this is the count of
	// one arming, not of a re-arm after the first bell.
	if n := r.rung[0].Load(); n != 1 {
		t.Fatalf("two publishers into one armed rank rang %d bells, want exactly 1", n)
	}
	p.block <- struct{}{}
	if err := within(t, "park", p.done); err != nil {
		t.Fatal(err)
	}
	r.expectBells(t, 0, 1)
}

// hierPair builds two co-located HierConduits (one host, one process:
// each rings the other by a direct wake) with the poll phase removed,
// so every wait that does not find its predicate true parks.
func hierPair(t *testing.T, ringBytes int) [2]*HierConduit {
	t.Helper()
	cds := buildHierFleet(t, 2, 2, ringBytes, 1<<12)
	var hs [2]*HierConduit
	for i, cd := range cds {
		hs[i] = cd.(*HierConduit)
		hs[i].ParkAlways()
	}
	return hs
}

// seqHandler registers shm handler 9 on h: it counts records and
// reports the first one out of sequence.
func seqHandler(h *HierConduit, got *int, bad *error) {
	h.shm.Register(9, func(from int, arg uint64, _ []byte) {
		if arg != uint64(*got) && *bad == nil {
			*bad = fmt.Errorf("rank %d: record %d arrived in place of %d", h.me, arg, *got)
		}
		*got++
	})
}

// awaitParked returns once h has armed its wake word for a park (its
// counters are atomics, readable from here while its rank runs).
func awaitParked(t *testing.T, h *HierConduit) {
	t.Helper()
	for deadline := time.Now().Add(parkDeadline); h.Counters()["shm_parks"] == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the rank never parked")
		}
	}
}

// runRanks runs body(rank) for both ranks and fails on a hang.
func runRanks(t *testing.T, body func(me int) error) {
	t.Helper()
	done := make(chan error, 2)
	for me := 0; me < 2; me++ {
		go func() { done <- body(me) }()
	}
	for range 2 {
		if err := within(t, "rank body", done); err != nil {
			t.Error(err)
		}
	}
}

// TestParkPingPong bounces records between two co-located ranks with no
// poll budget: every one of the waits arms, blocks on the transport
// inbox and is woken by a doorbell byte or by finding the record on
// its re-poll. One lost wake-up in 100k hangs it.
func TestParkPingPong(t *testing.T) {
	records := 100_000
	if testing.Short() {
		records = 10_000
	}
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
		c := h.Counters()
		if c["shm_parks"] != float64(records/2) {
			t.Errorf("rank %d parked %v times in %d waits with no poll budget", me, c["shm_parks"], records/2)
		}
		if c["shm_bells_tx"] == 0 || c["shm_bells_tx"] > float64(records/2) {
			t.Errorf("rank %d rang %v bells for %d records", me, c["shm_bells_tx"], records/2)
		}
		if c["wire_tx_frames"] != 0 || c["shm_bells_lost"] != 0 {
			t.Errorf("rank %d: %v wire frames sent and %v bells lost between two co-located ranks", me, c["wire_tx_frames"], c["shm_bells_lost"])
		}
		// Every byte written is a byte read, but the last one may still
		// be on its way: its waiter can have found the record by itself.
		awaitCounter(t, hs[1-me].shm, "shm_bells_rx", c["shm_bells_tx"])
	}
}

// fullRingRecords and fullRingPayload fill a minShmRingBytes ring every
// nineteen records.
const (
	fullRingRecords = 10_000
	fullRingPayload = 200
)

// TestParkFullRing: a producer floods a consumer that is parked on a
// predicate only a wire frame can satisfy. The consumer must drain the
// ring from inside that park, and the producer must park on the full
// ring and be rung once room is made, not spin.
func TestParkFullRing(t *testing.T) {
	hs := hierPair(t, minShmRingBytes)
	got, bad := 0, error(nil)
	seqHandler(hs[1], &got, &bad)
	const flagOff = 128
	runRanks(t, func(me int) error {
		h := hs[me]
		if me == 1 {
			seg := h.shm.Seg()
			if err := h.WaitFor(func() bool { return seg[flagOff] == 0xAB }); err != nil {
				return err
			}
			if got != fullRingRecords {
				return fmt.Errorf("consumer released by the wire put with %d of %d records drained", got, fullRingRecords)
			}
			return bad
		}
		payload := make([]byte, fullRingPayload)
		for i := 0; i < fullRingRecords; i++ {
			h.shm.Send(1, 9, uint64(i), payload)
		}
		// The wire leg's put, not HierConduit.Put: a frame, not a store.
		return h.wire.Put(1, flagOff, []byte{0xAB})
	})
	if parks := hs[0].Counters()["shm_parks"]; parks == 0 {
		t.Error("the producer never parked on the full ring")
	}
	if bells := hs[1].Counters()["shm_bells_tx"]; bells == 0 {
		t.Error("the consumer never rang the producer it made room for")
	}
}

// TestParkFullRingMutual: both ranks flood each other without polling
// in between, so both end up parked on a full ring at once. Each one's
// park drains its own rings, which is what makes room for the other.
func TestParkFullRingMutual(t *testing.T) {
	hs := hierPair(t, minShmRingBytes)
	var got [2]int
	var bad [2]error
	for me, h := range hs {
		seqHandler(h, &got[me], &bad[me])
	}
	runRanks(t, func(me int) error {
		h := hs[me]
		payload := make([]byte, fullRingPayload)
		for i := 0; i < fullRingRecords; i++ {
			h.shm.Send(1-me, 9, uint64(i), payload)
		}
		if err := h.WaitFor(func() bool { return got[me] == fullRingRecords }); err != nil {
			return err
		}
		return bad[me]
	})
	for me, h := range hs {
		c := h.Counters()
		if c["shm_parks"] == 0 || c["shm_bells_tx"] == 0 {
			t.Errorf("rank %d: %v parks, %v bells sent — it spun instead of parking", me, c["shm_parks"], c["shm_bells_tx"])
		}
	}
}

// TestHierExternalWakerUnparks: a foreign goroutine publishes a flag and
// calls the conduit's Waker while the rank, which has co-located peers,
// sits parked. Wake must reach whatever the park blocks on.
func TestHierExternalWakerUnparks(t *testing.T) {
	hs := hierPair(t, minShmRingBytes)
	var flag atomic.Bool
	done := make(chan error, 1)
	go func() { done <- hs[0].WaitFor(flag.Load) }()
	awaitParked(t, hs[0])
	flag.Store(true)
	hs[0].Capabilities().Waker.Wake()
	if err := within(t, "woken rank", done); err != nil {
		t.Fatal(err)
	}
}

// TestHierBudgetByTopology pins which shape gets which wait: a job of
// goroutines on one host polls longer and re-polls on a tick while
// parked (a rank there gets out of a park with its doorbell cut), any
// other polls pollsBeforePark times and relies on the doorbell alone.
func TestHierBudgetByTopology(t *testing.T) {
	for _, cd := range buildHierFleet(t, 4, 2, minShmRingBytes, 1<<12) {
		if got := cd.(*HierConduit).polls; got != pollsBeforePark {
			t.Errorf("2x2 job: poll budget %d, want %d", got, pollsBeforePark)
		}
	}
	cds := buildHierFleet(t, 2, 2, minShmRingBytes, 1<<12)
	h0, h1 := cds[0].(*HierConduit), cds[1].(*HierConduit)
	if h0.polls != pollsBeforeParkGoroutines {
		t.Errorf("1x2 goroutine job: poll budget %d, want %d", h0.polls, pollsBeforeParkGoroutines)
	}
	h0.polls = 0
	h1.shm.bell = func(int) {}
	got, bad := 0, error(nil)
	seqHandler(h0, &got, &bad)
	done := make(chan error, 1)
	go func() { done <- h0.WaitFor(func() bool { return got == 1 }) }()
	awaitParked(t, h0)
	h1.shm.Send(0, 9, 0, nil)
	if err := within(t, "rank parked without a doorbell", done); err != nil {
		t.Fatal(err)
	}
}

// TestShmPeersAreGoroutines: the nonce in a peer's header tells a rank
// whether that peer shares its process.
func TestShmPeersAreGoroutines(t *testing.T) {
	for _, foreign := range []bool{false, true} {
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
		if foreign {
			putU64(cds[1].files[1][shmProcOff:], shmProc+1)
		}
		if err := cds[0].Attach(); err != nil {
			t.Fatal(err)
		}
		if got := cds[0].PeersAreGoroutines(); got == foreign {
			t.Errorf("peer created by another process = %v, PeersAreGoroutines = %v", foreign, got)
		}
	}
}

// TestWireHandlerTable: every wire handler id has a name of its own and
// a slot in both traffic tables, and registration refuses an id that
// has none — so a new handler cannot go uncounted or unnamed.
func TestWireHandlerTable(t *testing.T) {
	w := buildHierFleet(t, 1, 1, minShmRingBytes, 1<<12)[0].(*HierConduit).wire
	seen := map[string]uint16{}
	for h := hReply; h <= hLast; h++ {
		name := handlerNames[h]
		if name == "" {
			t.Errorf("wire handler %d has no name", h)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("wire handlers %d and %d share the name %q", prev, h, name)
		}
		seen[name] = h
	}
	// The traffic tables are arrays indexed by id: a slot per id up to
	// hLast, by type.
	if len(w.tx) != int(hLast)+1 || len(w.rx) != int(hLast)+1 {
		t.Errorf("traffic tables hold %d/%d slots for ids up to %d", len(w.tx), len(w.rx), hLast)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("registering wire handler %d, above hLast, did not panic", hLast+1)
		}
	}()
	w.register(hLast+1, nil)
}
