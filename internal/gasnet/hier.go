package gasnet

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"upcxx/internal/frames"
	"upcxx/internal/obs"
	"upcxx/internal/pad"
)

// Wire handler ids of the hierarchical leader plane (11/12 are the flat
// team collectives in wire.go; the two tables share one numbering).
const (
	hHierGather uint16 = 13 // Arg=key, payload = fragment of a subtree's entry blob
	hHierTable  uint16 = 14 // Arg=key, payload = fragment of the member-ordered table
	hHierBar    uint16 = 15 // Arg=key, payload = [round u64]; dissemination token

	// hLast is the highest wire handler id. NewWireConduit sizes its
	// name and stat tables by it, so a new id goes above this line and
	// moves hLast, or it does not compile (handlerNames) or panics at
	// registration (register).
	hLast = hHierBar
)

// Poll budgets: how many times a wait that a co-located rank may end
// polls both planes before it arms the wake word and parks — every wait
// but a collective's on the wire, which only a frame from another host
// ends and which parks at once, so that the park reads that frame
// (hier_coll.go). Constants sized by measurement and selected by the
// topology the conduit can see, never configured; DESIGN.md section 3
// has the sweeps.
const (
	// Every job but the one below: past the first few polls a waiter
	// only takes the core from the producer it waits for, and between
	// processes the yield hands it to nobody. BenchmarkHierBarrier 2x2,
	// mean us by budget: 0 -> 52-56, 2 -> 44-46, 4 -> 46, 16 -> 55-62,
	// 64 -> 81; four processes on one host: 4 -> 212, 1024 -> 640.
	pollsBeforePark = 4
	// A job of goroutines of one process on one host (RunHierLocal(n,
	// n)): the yield runs the neighbour that resolves the wait (1x4
	// barrier 45 us at 4, 6-7 at 64 as on the parent). Its bells are
	// direct calls, but a wire frame (locks ride the wire) is read by
	// the netpoller only once a P runs dry, which the neighbours' poll
	// loops prevent: a rank parked on one stays parked until they all
	// give up, at any budget (TestHierBeatsFlatBarrier under a parallel
	// go test ./... failed 3 runs of 5 at 64, 1 of 8 at 65536, measured
	// while bells too went through the netpoller). So here alone a
	// parked rank also re-polls on a timer, which busy Ps do serve: 0
	// failures of 16. The timer is armed only while the rank is parked;
	// a rank that is polling or computing pays nothing.
	pollsBeforeParkGoroutines = 64
	repollParkedGoroutines    = 20 * time.Microsecond
)

// Shm AM handler ids (ShmConduit's own table, disjoint from the wire's).
const (
	shmReply       uint16 = 1 // arg=token, payload = reply bytes
	shmAlloc       uint16 = 2 // arg=token, payload = [size u64]; reply 0 = fail
	shmFree        uint16 = 3 // arg=token, payload = [off u64]
	shmBatch       uint16 = 4 // arg=token, payload = aggregation batch
	shmTeamContrib uint16 = 5 // arg=key, payload = member's contribution (to its leader)
	shmTeamTable   uint16 = 6 // arg=key, payload = the encoded table (leader to locals)
	shmBarArrive   uint16 = 7 // arg=key, no payload
	shmBarRelease  uint16 = 8 // arg=key, no payload
)

// HierConduit is the two-level backend: co-located ranks (same host
// index in the launch topology) communicate through an ShmConduit —
// direct load/store puts and gets into mmap'd peer segments, AM rings
// for control — while cross-host traffic rides a WireConduit, and
// collectives run hierarchically: an intra-host phase over shared
// memory, then a tree/dissemination phase among one elected leader per
// host (the first co-located rank). This is the paper's two-level
// machine model: GASNet's PSHM bypass below, the network conduit above.
//
// Both legs' blocking-wait primitives are replaced by the one WaitFor
// below, so EVERY blocked operation — a wire request, a collective, a
// push on a full shm ring — services both planes: a rank parked in a
// wire lock request still answers its neighbors' shared-memory
// allocations, which is what keeps the two planes deadlock-free under
// mutual blocking.
//
// Like its legs, a HierConduit is driven by its rank's single SPMD
// goroutine. It advertises Batch, Counters, Locality and Waker;
// NOT Resilient — the shm plane has no failure detector, so the
// composed conduit cannot honor survivable peer loss, and its launcher
// builds the wire leg without one too.
type HierConduit struct {
	wire  *WireConduit
	shm   *ShmConduit
	nodes []int // host index per world rank

	me       int
	locals   []int       // world ranks co-located with me, ascending (locals[shmIdx] = world)
	localIdx map[int]int // world rank -> shm local index
	polls    int         // the poll budget above that the topology selects (a field: tests set 0)
	part     *hierPart   // partition's buffers between collectives; nil while one holds them

	// repoll, when non-zero, is how often a parked rank wakes to re-poll
	// (the all-goroutines shape only; tests set 0); repollTimer is the
	// one timer that does it, made at the first such park.
	repoll      time.Duration
	repollTimer *time.Timer
	// block is what a park blocks in: the wire leg's inbox wait, or
	// parkRepolling in the shape with a repoll (a method value made once:
	// one per park would be an allocation per park).
	block func(armed func() bool) error

	_         pad.Line // as WireConduit.nextToken
	nextToken uint64
	_         pad.Line

	replies map[uint64][]byte
	shmAcks map[uint64]func()

	// Leader-plane collective state. All maps accumulate passively from
	// handlers: a leader may receive deposits for a key before it enters
	// that collective itself. spare holds emptied inner maps of
	// localParts and treeBlobs for the next key.
	localParts map[uint64]map[int][]byte // leader: world rank -> contrib
	localTable map[uint64][]byte         // member: table by key
	treeBlobs  map[uint64]map[int][]byte // leader: child leader (world) -> entry blob
	treeFrags  map[fragKey]*fragBuf      // leader: partial blobs
	hierTable  map[uint64][]byte         // leader: table from parent by key
	tableFrags map[fragKey]*fragBuf      // leader: partial tables
	barLocal   map[uint64]int            // leader: local arrivals by key
	barRelease map[uint64]bool           // member: release flag by key
	barWire    map[hierBarKey]int        // leader: dissemination tokens by (key, round)
	spare      []map[int][]byte

	// What the rank waits for, and the predicates its waits test: built
	// once by NewHierConduit and reading cw, which await sets.
	cw    hierWait
	preds hierPreds

	// ring is this rank's span ring (nil unless tracing was on when the
	// conduit was built), shared with both legs.
	ring *obs.Ring
}

// NewHierConduit composes wire and shm under the given host topology
// (nodes[r] = host of world rank r). shm must already be Attached, its
// locals being exactly the ranks sharing wire.Rank()'s host, in
// ascending world-rank order.
func NewHierConduit(wire *WireConduit, shm *ShmConduit, nodes []int) *HierConduit {
	me := wire.Rank()
	if len(nodes) != wire.Ranks() {
		panic(fmt.Sprintf("gasnet: hier topology has %d entries for %d ranks", len(nodes), wire.Ranks()))
	}
	h := &HierConduit{
		wire:       wire,
		shm:        shm,
		nodes:      nodes,
		me:         me,
		localIdx:   make(map[int]int),
		replies:    make(map[uint64][]byte),
		shmAcks:    make(map[uint64]func()),
		localParts: make(map[uint64]map[int][]byte),
		localTable: make(map[uint64][]byte),
		treeBlobs:  make(map[uint64]map[int][]byte),
		treeFrags:  make(map[fragKey]*fragBuf),
		hierTable:  make(map[uint64][]byte),
		tableFrags: make(map[fragKey]*fragBuf),
		barLocal:   make(map[uint64]int),
		barRelease: make(map[uint64]bool),
		barWire:    make(map[hierBarKey]int),
		ring:       obs.RingFor(me),
	}
	shm.obsRing = h.ring // the shm leg knows its local index only, not its world rank
	for r, nd := range nodes {
		if nd == nodes[me] {
			h.localIdx[r] = len(h.locals)
			h.locals = append(h.locals, r)
		}
	}
	if len(h.locals) != shm.Locals() || h.localIdx[me] != shm.Local() {
		panic(fmt.Sprintf("gasnet: shm geometry (%d locals, me %d) disagrees with topology (%d, %d)",
			shm.Locals(), shm.Local(), len(h.locals), h.localIdx[me]))
	}
	h.block = h.wire.park
	switch {
	case len(h.locals) == 1:
		// Alone on its host: whatever a poll could find, the inbox wait
		// delivers (4x1 allgather p50 68-71 us at 4; 64-69 at 0, which is
		// the parent's path, and on the parent).
		h.polls = 0
	case len(h.locals) == len(nodes) && shm.PeersAreGoroutines():
		h.polls = pollsBeforeParkGoroutines
		h.repoll = repollParkedGoroutines
		h.block = h.parkRepolling
	default:
		h.polls = pollsBeforePark
	}

	// One wait for both planes, parked on the wire endpoint's inbox:
	// every bell to this rank — a call from a peer of this process, a
	// byte on its FIFO from any other — becomes a wake message there.
	wire.wait = h.WaitFor
	shm.wait = h.WaitFor
	shm.Listen(wire.Wake)
	h.preds = h.newHierPreds()

	wire.register(hHierGather, h.onHierGather)
	wire.register(hHierTable, h.onHierTable)
	wire.register(hHierBar, h.onHierBar)

	shm.Register(shmReply, h.onShmReply)
	shm.Register(shmAlloc, h.onShmAlloc)
	shm.Register(shmFree, h.onShmFree)
	shm.Register(shmBatch, h.onShmBatch)
	shm.Register(shmTeamContrib, h.onShmTeamContrib)
	shm.Register(shmTeamTable, h.onShmTeamTable)
	shm.Register(shmBarArrive, h.onShmBarArrive)
	shm.Register(shmBarRelease, h.onShmBarRelease)
	return h
}

// WaitFor services both planes until pred() is true: a few polls, then
// a park. The poll phase is what a PSHM-enabled GASNet does — both
// polls are cheap (a channel drain, a few atomic loads) and a yield
// lets the co-located producer run. The park is the transport's own
// event-driven inbox wait, the one the flat wire conduit blocks in,
// behind the shm wake protocol (ShmConduit.Park): cross-host frames
// arrive in the inbox by themselves — or, from a peer whose frames
// have ended the rank's last parks, in the rank's own read of that
// peer's socket — and a co-located neighbour that publishes into our
// rings while we are armed rings our bell, which wakes the same inbox
// — directly if the neighbour is a goroutine of this process, through
// our doorbell FIFO and its reader if it is another process; no frame
// and no TCP between two ranks of one host. One protocol for goroutine
// ranks and process ranks, only the carrier of the bell differs (the
// one shape in which the inbox alone is not enough also re-polls on a
// timer while parked: parkRepolling); a rank alone on its host parks
// at once, and its wake word is never read.
// Wire polls and the inbox wait both flush, so a peer is never left
// waiting on a frame parked in our write buffer.
func (h *HierConduit) WaitFor(pred func() bool) error { return h.wait(pred, h.polls) }

// wait is WaitFor with the poll budget its call site chose: h.polls, or
// 0 for a wait that only a wire frame can end. The poll phase's wire
// polls cast no vote on the read side (WireConduit.pollBeforePark):
// the park that follows them is what reads it.
func (h *HierConduit) wait(pred func() bool, polls int) error {
	for ; polls > 0; polls-- {
		if pred() {
			return nil
		}
		if h.wire.pollBeforePark()+h.shm.Poll() == 0 {
			runtime.Gosched()
		}
	}
	return h.shm.Park(pred, h.block)
}

// parkRepolling is the block of the all-goroutines shape (see
// pollsBeforeParkGoroutines): the inbox wait, with every false
// evaluation of armed — each of which has just re-polled the rings —
// arming one timer whose firing is a Wake like a bell's. It rescues
// what the netpoller starves in this shape (a wire frame; a bell is a
// direct call here and needs no rescue). The timer runs only between
// a failed re-poll and the end of the park.
func (h *HierConduit) parkRepolling(armed func() bool) error {
	if h.repollTimer == nil {
		h.repollTimer = time.AfterFunc(h.repoll, h.wire.Wake)
	}
	defer h.repollTimer.Stop()
	return h.wire.park(func() bool {
		if armed() {
			return true
		}
		h.repollTimer.Reset(h.repoll)
		return false
	})
}

// Rank returns this conduit's world rank; Ranks the job size.
func (h *HierConduit) Rank() int  { return h.me }
func (h *HierConduit) Ranks() int { return h.wire.Ranks() }

// Capabilities: batching, counters, locality and external wakeup. No
// resilience (see type comment).
func (h *HierConduit) Capabilities() Caps {
	return Caps{Batch: h, Counters: h, Locality: h, Waker: h}
}

// Wake unblocks a WaitFor on this conduit from a foreign goroutine
// (WakerConduit; never the rank's own): the wire leg's inbox is what a
// parked WaitFor blocks on.
func (h *HierConduit) Wake() { h.wire.Wake() }

// Nodes returns the launch topology (LocalityConduit).
func (h *HierConduit) Nodes() []int { return h.nodes }

// colocated returns the shm index of a co-located non-self rank.
func (h *HierConduit) colocated(rank int) (int, bool) {
	if rank == h.me {
		return 0, false
	}
	li, ok := h.localIdx[rank]
	return li, ok
}

// ---- One-sided data plane ----

// Get: co-located targets are direct loads from the peer's mapped
// segment — no frame, no kernel, the PSHM fast path; everything else is
// the wire leg (which keeps its own self fast path).
func (h *HierConduit) Get(rank int, off uint64, p []byte) error {
	if li, ok := h.colocated(rank); ok {
		seg := h.shm.PeerSeg(li)
		if off > uint64(len(seg)) || uint64(len(p)) > uint64(len(seg))-off {
			return refused("get", rank, off, len(p))
		}
		copy(p, seg[off:])
		return nil
	}
	return h.wire.Get(rank, off, p)
}

// Put: the direct-store mirror of Get.
func (h *HierConduit) Put(rank int, off uint64, p []byte) error {
	if li, ok := h.colocated(rank); ok {
		seg := h.shm.PeerSeg(li)
		if off > uint64(len(seg)) || uint64(len(p)) > uint64(len(seg))-off {
			return refused("put", rank, off, len(p))
		}
		copy(seg[off:], p)
		return nil
	}
	return h.wire.Put(rank, off, p)
}

// Xor64: a CAS loop directly on the co-located peer's mapped word — the
// same loop the segment's own Xor64 runs, so owner and neighbors
// contend correctly through the one shared memory location.
func (h *HierConduit) Xor64(rank int, off uint64, val uint64) (uint64, error) {
	if li, ok := h.colocated(rank); ok {
		seg := h.shm.PeerSeg(li)
		if off+8 > uint64(len(seg)) {
			return 0, fmt.Errorf("gasnet: shm xor at %d overruns %d-byte segment", off, len(seg))
		}
		p := (*uint64)(unsafe.Pointer(&seg[off]))
		for {
			old := atomic.LoadUint64(p)
			if atomic.CompareAndSwapUint64(p, old, old^val) {
				return old ^ val, nil
			}
		}
	}
	return h.wire.Xor64(rank, off, val)
}

// GetAsync completes co-located transfers synchronously (a direct copy
// IS the completed transfer); cross-host ones ride the wire's async
// plane.
func (h *HierConduit) GetAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error {
	if _, ok := h.colocated(rank); ok {
		if err := h.Get(rank, off, p); err != nil {
			return err
		}
		onDone(nil)
		return nil
	}
	return h.wire.GetAsync(rank, off, p, timeout, onDone)
}

// PutAsync is the mirror of GetAsync.
func (h *HierConduit) PutAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error {
	if _, ok := h.colocated(rank); ok {
		if err := h.Put(rank, off, p); err != nil {
			return err
		}
		onDone(nil)
		return nil
	}
	return h.wire.PutAsync(rank, off, p, timeout, onDone)
}

// ---- Control plane: allocation over shm AMs ----

// shmRequest is the shm plane's blocking request/reply: the token rides
// the record's arg, the reply arrives as shmReply, and the wait loop
// services both planes.
func (h *HierConduit) shmRequest(li int, handler uint16, payload []byte) ([]byte, error) {
	h.nextToken++
	tok := h.nextToken
	h.shm.Send(li, handler, tok, payload)
	err := h.await(hierWait{key: tok}, h.preds.replied, h.polls)
	out := h.replies[tok]
	delete(h.replies, tok)
	return out, err
}

// onShmReply parks a control-plane reply for its requester, or
// completes a batch: the reply its ack carries is applied first, then
// onAck and the after hook run, as on the wire.
func (h *HierConduit) onShmReply(from int, tok uint64, payload []byte) {
	onAck, ok := h.shmAcks[tok]
	if !ok {
		h.replies[tok] = payload
		return
	}
	delete(h.shmAcks, tok)
	if len(payload) > 0 {
		// A co-located peer writes our memory anyway: its bad reply aborts.
		if err := h.wire.batchApply(h.locals[from], payload); err != nil {
			panic(fmt.Errorf("gasnet: rank %d: corrupt shm batch reply from rank %d: %w", h.me, h.locals[from], err))
		}
	}
	onAck()
	h.wire.batchAfter()
}

// shmControl sends an alloc or free request to co-located rank li and
// returns the home's answer; ok is false when the home refused it: a
// zero answer, or a reply that is not 8 bytes long (the empty failure
// reply a malformed request draws).
func (h *HierConduit) shmControl(li int, handler uint16, req []byte) (v uint64, ok bool, err error) {
	rep, err := h.shmRequest(li, handler, req)
	if err != nil || len(rep) != 8 {
		return 0, false, err
	}
	return u64(rep), u64(rep) != 0, nil
}

// Alloc runs on the owner's allocator: self directly, co-located via a
// shm AM round trip, remote over the wire.
func (h *HierConduit) Alloc(rank int, size uint64) (uint64, error) {
	li, ok := h.colocated(rank)
	if !ok {
		return h.wire.Alloc(rank, size)
	}
	var req [8]byte
	putU64(req[:], size)
	v, ok, err := h.shmControl(li, shmAlloc, req[:])
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("gasnet: remote alloc of %d bytes on rank %d failed", size, rank)
	}
	return v - 1, nil
}

// onShmAlloc answers an alloc request with offset+1, 0 when the
// allocator refuses, and an empty reply to a request of fewer than 8
// bytes, which no correct peer sends.
func (h *HierConduit) onShmAlloc(from int, tok uint64, payload []byte) {
	if len(payload) < 8 {
		h.shm.Send(from, shmReply, tok, nil)
		return
	}
	var rep [8]byte
	if off, err := h.wire.mem.Alloc(u64(payload)); err == nil {
		putU64(rep[:], off+1)
	}
	h.shm.Send(from, shmReply, tok, rep[:])
}

// Free mirrors Alloc.
func (h *HierConduit) Free(rank int, off uint64) error {
	li, ok := h.colocated(rank)
	if !ok {
		return h.wire.Free(rank, off)
	}
	var req [8]byte
	putU64(req[:], off)
	_, ok, err := h.shmControl(li, shmFree, req[:])
	if err == nil && !ok {
		err = fmt.Errorf("gasnet: remote free at offset %d on rank %d failed", off, rank)
	}
	return err
}

// onShmFree mirrors onShmAlloc.
func (h *HierConduit) onShmFree(from int, tok uint64, payload []byte) {
	if len(payload) < 8 {
		h.shm.Send(from, shmReply, tok, nil)
		return
	}
	var rep [8]byte
	if h.wire.mem.Free(u64(payload)) == nil {
		putU64(rep[:], 1)
	}
	h.shm.Send(from, shmReply, tok, rep[:])
}

// ---- Lock service ----
//
// Locks stay on the wire plane unconditionally: a lock's waiter queue
// must live in exactly one place, and the home rank's wire handler
// table is it. Blocking acquires still service the shm plane (the
// replaced wait), so co-located ranks spinning on one lock make
// progress.

func (h *HierConduit) LockNew() uint64 { return h.wire.LockNew() }
func (h *HierConduit) LockAcquire(home int, id uint64, try bool) (bool, error) {
	return h.wire.LockAcquire(home, id, try)
}
func (h *HierConduit) LockRelease(home int, id uint64) error {
	return h.wire.LockRelease(home, id)
}

// ---- Aggregation batch plane ----

// SetBatchHandler installs the batch hooks on both planes: the wire
// leg holds them, and the shm handlers call the same three.
func (h *HierConduit) SetBatchHandler(apply func(from int, payload []byte) error, reply func(to int) []byte, after func()) {
	h.wire.SetBatchHandler(apply, reply, after)
}

// SendBatch routes one aggregation batch by locality: co-located
// batches ride the shm ring (one record, one shm ack that may carry
// the reply — no wire frames at all), remote ones the wire's batch
// plane.
func (h *HierConduit) SendBatch(to int, payload []byte, onAck func()) error {
	li, ok := h.colocated(to)
	if !ok {
		return h.wire.SendBatch(to, payload, onAck)
	}
	if onAck == nil {
		onAck = func() {}
	}
	h.nextToken++
	h.shmAcks[h.nextToken] = onAck
	h.shm.Send(li, shmBatch, h.nextToken, payload)
	// shm.Send copied the batch into the ring; the pooled encoder
	// buffer arrived owned by this call, so recycle it here.
	frames.Put(payload)
	return nil
}

func (h *HierConduit) onShmBatch(from int, tok uint64, payload []byte) {
	w := h.locals[from]
	// A co-located peer writes our memory anyway: its bad batch aborts.
	if err := h.wire.batchApply(w, payload); err != nil {
		panic(fmt.Errorf("gasnet: rank %d: corrupt shm batch from rank %d: %w", h.me, w, err))
	}
	rep := h.wire.batchReply(w)
	h.shm.Send(from, shmReply, tok, rep)
	if rep != nil {
		frames.Put(rep) // copied into the ring
	}
	h.wire.batchAfter()
}

// ---- Lifecycle and metering ----

// Poll services both planes without blocking.
func (h *HierConduit) Poll() int { return h.wire.Poll() + h.shm.Poll() }

// Counters merges both planes' metering: the wire leg's per-handler
// frame/byte counters (so tests can assert co-located puts produce zero
// wire frames) plus the shm ring's message counts.
func (h *HierConduit) Counters() map[string]float64 {
	out := h.wire.Counters()
	for k, v := range h.shm.Counters() {
		out[k] = v
	}
	return out
}

// Close tears down both legs. Callers must have synchronized first.
func (h *HierConduit) Close() error {
	werr := h.wire.Close()
	serr := h.shm.Close()
	if werr != nil {
		return werr
	}
	return serr
}
