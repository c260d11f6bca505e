// Package transport provides byte-level message transports — the
// "network drivers" layer under the gasnet analog (paper Fig 2): framed
// active messages over TCP between separate endpoints, with handler
// dispatch by registered index.
//
// This is the substrate of gasnet's wire conduit: the core runtime runs
// over it whenever a job is launched multi-process (cmd/upcxx-run, or
// core.RunWire directly). The serializable operations — one-sided
// reads/writes, the xor atomic, remote allocation, barriers and
// collectives, lock traffic — all travel as these frames; only
// closure-carrying asyncs remain in-process-only, because Go closures
// do not serialize.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"upcxx/internal/fault"
	"upcxx/internal/frames"
	"upcxx/internal/obs"
	"upcxx/internal/pad"
)

// Message is one framed active message.
type Message struct {
	From    int32
	To      int32
	Handler uint16

	// pooled marks a payload owned by the transport (rx-loop buffers
	// from internal/frames, SendOwned loopbacks): dispatch releases it
	// back to the pool after the handler returns.
	pooled bool

	// Landed is set on a received frame whose payload its read placed
	// straight at its destination (a Lander's window, or the buffer
	// ArmLanding named) instead of in Payload, which is then nil: it is
	// that payload's length. Zero on every other frame.
	Landed int32

	Arg     uint64
	Payload []byte
}

// MaxPayload bounds a frame's payload, both on send (oversized messages
// are rejected before any bytes hit the wire, so a half-written frame
// never corrupts the stream) and on receive (sanity limit against
// corrupt or hostile streams).
const MaxPayload = 16 << 20

// InboxSlots is how many delivered messages an endpoint holds for its
// rank: enough to let the readers run ahead of a rank that is
// computing. A full inbox blocks them (and, through TCP, the senders),
// which is the transport's only flow control.
const InboxSlots = 1024

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrPayloadTooLarge is returned by Send for payloads over MaxPayload.
var ErrPayloadTooLarge = errors.New("transport: payload exceeds MaxPayload")

// ErrPeerDown is the sentinel matched (via errors.Is) by every
// PeerDownError a survivable endpoint returns for sends to a lost peer.
var ErrPeerDown = errors.New("transport: peer down")

// PeerDownError reports a send addressed to a peer whose connection was
// lost while the endpoint survives in peer-down mode.
type PeerDownError struct {
	Peer  int
	Cause error
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("transport: peer %d down: %v", e.Peer, e.Cause)
}
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }
func (e *PeerDownError) Unwrap() error        { return e.Cause }

// Handler processes one delivered message on the receiving endpoint's
// polling goroutine.
type Handler func(ep *TCPEndpoint, m Message)

// Control frames exchanged between endpoints, outside the handler table:
// hello identifies the dialing rank during Connect; bye announces a
// clean close, so the EOF that follows it is teardown, not peer loss.
// peerDown is synthesized locally (never sent on the wire): when a
// survivable endpoint loses a peer, its reader goroutine enqueues one
// peerDown message through the inbox (a rank reading that peer's
// socket itself dispatches it at once), so the loss is observed on the
// dispatch goroutine strictly after every frame that peer delivered.
// wake is also synthesized locally: Wake enqueues one through the
// inbox so a blocked WaitFor re-runs its predicate. It carries no
// payload; the periodic tick and endpoint close reach a blocked rank as
// the same message — and end the read, if the rank is blocked in a read
// of its peer's socket rather than on the inbox. wake is the lowest of
// them: recv refuses every id from it up, bye excepted, once Connect is
// done.
const (
	helloHandler    uint16 = 0xFFFF
	byeHandler      uint16 = 0xFFFE
	peerDownHandler uint16 = 0xFFFD
	wakeHandler     uint16 = 0xFFFC
)

// Vectored send plane tuning.
const (
	// frameHdrLen is the fixed frame header: [to u32][from u32]
	// [handler u16][arg u64][len u64].
	frameHdrLen = 26
	// InlineMax is the largest payload copied into the header slab
	// instead of queued by reference: small control payloads (tokens,
	// offsets, stack-allocated request encodings) cost less to copy 26
	// bytes away from their header than to spend an iovec entry on, and
	// the copy ends the caller's borrow at Send return. A borrowed part
	// longer than this stays referenced until the flush that ships it.
	InlineMax = 64
	// slabCap sizes the pooled header/inline slabs (a frames size
	// class; ~500 header+small-payload runs per slab).
	slabCap = 16 << 10
	// flushThreshold ships a peer's queue from inside Send once this
	// many bytes are queued, bounding memory under one-way storms.
	flushThreshold = 256 << 10
	// rxBufLen sizes each reader's header buffer: one Read fills it, and
	// every frame that fits — header and payload — is parsed out of it
	// without another system call. The size is set by counting. Below
	// it, payloads stop fitting beside their header (at 256 B a 256-byte
	// payload is back to two reads per frame). Above it, a payload that
	// does not fit has more of itself copied twice, since its buffered
	// prefix is copied into its pooled frame: at 512 B a 32 KiB frame
	// pays at most 486 copied bytes and the same two reads it always
	// did. DESIGN.md §3 has the measurements.
	rxBufLen = 512
)

// LongPayload is the largest payload that always fits beside its header
// in a reader's buffer. A longer one is a long message: it never
// arrives whole with its header, and it is what a landing (SetLander,
// ArmLanding) can read straight to its destination. Every shorter frame
// takes the one rx path there is for it.
const LongPayload = rxBufLen - frameHdrLen

// outQ is one peer's vectored send queue: frame headers (and inlined
// small payloads) are carved from pooled slabs, large payloads are
// queued by reference, and the whole run ships as one
// net.Buffers.WriteTo — a single writev on a *net.TCPConn — per flush,
// so the tx path copies nothing it can scatter-gather. Guarded by the
// endpoint's mu.
type outQ struct {
	bufs  net.Buffers // iovec list, in frame order
	wv    net.Buffers // ship's cursor over bufs (WriteTo consumes its receiver)
	owned [][]byte    // pooled payloads released once shipped
	slab  []byte      // active header/inline slab (len = bytes used)
	slabs [][]byte    // retired slabs awaiting release
	run   int         // slab offset where bufs' open tail entry begins; -1 when sealed
	qn    int         // total queued bytes
}

// slabAppend copies p into the slab, extending the open tail iovec when
// p lands contiguously after it (headers and inline payloads of
// consecutive frames coalesce into one entry).
func (q *outQ) slabAppend(p []byte) {
	if q.slab == nil || len(q.slab)+len(p) > cap(q.slab) {
		if q.slab != nil {
			q.slabs = append(q.slabs, q.slab)
		}
		q.slab = frames.Get(slabCap)[:0]
		q.run = -1
	}
	start := len(q.slab)
	q.slab = append(q.slab, p...)
	if q.run >= 0 {
		q.bufs[len(q.bufs)-1] = q.slab[q.run:len(q.slab):len(q.slab)]
	} else {
		q.run = start
		q.bufs = append(q.bufs, q.slab[start:len(q.slab):len(q.slab)])
	}
	q.qn += len(p)
}

// refAppend queues p by reference as its own iovec entry, sealing the
// slab run (the next header starts a new entry, preserving frame order).
func (q *outQ) refAppend(p []byte) {
	q.run = -1
	q.bufs = append(q.bufs, p)
	q.qn += len(p)
}

// enqueue queues one frame whose payload is m.Payload followed by tail.
// owned payloads are released by the queue (after the flush that ships
// them, or immediately when inlined); borrowed ones — tail always —
// stay aliased until the flush.
func (q *outQ) enqueue(m Message, tail []byte, owned bool) {
	var hdr [frameHdrLen]byte
	putHeader(hdr[:], m, len(m.Payload)+len(tail))
	q.slabAppend(hdr[:])
	q.part(m.Payload, owned)
	q.part(tail, false)
}

// part queues one payload part: inlined into the slab when small, by
// reference otherwise.
func (q *outQ) part(p []byte, owned bool) {
	switch {
	case len(p) == 0:
	case len(p) <= InlineMax:
		q.slabAppend(p)
		if owned {
			frames.Put(p)
		}
	default:
		q.refAppend(p)
		if owned {
			q.owned = append(q.owned, p)
		}
	}
}

// ship writes every queued byte to c with one vectored WriteTo and
// resets the queue (releasing owned payloads and retired slabs) whether
// or not the write succeeded — after an error the connection is dead
// and the bytes are gone either way. Called through TCPEndpoint.ship,
// which skips an empty queue.
func (q *outQ) ship(c net.Conn) error {
	q.wv = q.bufs // a field, so taking its address allocates nothing
	_, err := q.wv.WriteTo(c)
	q.wv = nil
	q.reset()
	return err
}

// reset drops queued state, returning owned payloads and retired slabs
// to the pool and keeping every slice's capacity for reuse.
func (q *outQ) reset() {
	for i := range q.bufs {
		q.bufs[i] = nil
	}
	q.bufs = q.bufs[:0]
	for i, b := range q.owned {
		frames.Put(b)
		q.owned[i] = nil
	}
	q.owned = q.owned[:0]
	for i, s := range q.slabs {
		frames.Put(s)
		q.slabs[i] = nil
	}
	q.slabs = q.slabs[:0]
	q.slab = q.slab[:0]
	q.run = -1
	q.qn = 0
}

// free releases everything including the active slab; the queue is dead.
func (q *outQ) free() {
	q.reset()
	frames.Put(q.slab)
	q.slab = nil
}

// TCPEndpoint is one rank's attachment to a full-mesh TCP fabric.
type TCPEndpoint struct {
	rank     int32
	n        int32
	ln       net.Listener
	handlers []Handler

	// Guarded by mu.
	conns  []net.Conn  // by peer rank; nil for self
	qs     []*outQ     // vectored send queue per peer, same indexing
	ticker *time.Timer // one-shot; marks the periodic tick due (SetTick)

	// The send side's words, written on every send and flush by the
	// goroutine driving the rank, bracketed away from the fields above
	// and from inbox and done below, which every reader goroutine reads
	// per frame. mu serializes the senders; txFrames and txWritevs count
	// frames queued for a peer and vectored writes made (one writev each
	// unless the kernel takes a partial write), plain words every writer
	// holds mu for; txPending is set (under mu) whenever a frame is left
	// queued, so a flush with nothing to ship returns before taking mu.
	_                   pad.Line
	mu                  sync.Mutex
	txFrames, txWritevs int64
	txPending           atomic.Bool
	_                   pad.Line

	// inbox holds frames from the reader goroutines, loopback sends, and
	// the synthetic peerDown and wake messages, InboxSlots of them: what
	// a rank blocks on, unless it reads its affinity peer's socket
	// itself (readOwned).
	inbox     chan Message
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	rxs       []*frameReader // by peer rank; nil for self
	sites     []*rxLanding   // by peer rank, the readers' landing sites; nil for self

	// lander is the endpoint's one Lander and the handler it serves
	// (SetLander), loaded by the readers on long frames only.
	lander atomic.Pointer[lander]
	// dispatched counts, per peer, the frames the dispatch goroutine has
	// finished handling: the order rule lets a lander place a peer's
	// frame only once it equals what that peer's reader has delivered.
	// Written per frame by the dispatch goroutine alone, so the counts
	// sit in a padded array of their own.
	dispatched []atomic.Int64

	// wakeQueued is the one word of the wake protocol: set by the Wake
	// that enqueues a wake message, cleared by the dispatch goroutine
	// when it takes that message out — before it re-evaluates any
	// predicate. While it is set, further Wakes are already covered and
	// return at once. tickDue tells the dispatch goroutine that the
	// wake it is looking at came (also) from the periodic tick.
	wakeQueued     atomic.Bool
	tickDue        atomic.Bool
	wakesCoalesced atomic.Int64
	// direct is the peer whose socket the rank is blocked reading, -1
	// when it is in no such read: what a Wake or a delivery interrupts.
	direct atomic.Int32

	// The rank's read-side affinity (readOwned, vote), the rank
	// goroutine's own: the peer whose read side it takes when it parks;
	// a candidate and the parks it has ended with no other peer's frame
	// between (votes); the parks in a row the affinity peer has not
	// ended (misses); whether the next message dispatched ended a park.
	aff, cand     int32
	votes, misses int
	woke          bool

	failMu  sync.Mutex
	failure error // first peer-connection loss; endpoint is torn down

	dropped atomic.Int64 // messages with no registered handler

	// Fault-injection seam: consulted on every outgoing remote frame.
	// Nil (the default) is a no-op. Set before Connect.
	inj *fault.Injector

	// Peer-down survival. By default a lost peer tears the whole
	// endpoint down (fail); installing a peer-down handler switches the
	// endpoint to survivable mode, where only that peer's connection is
	// retired and the loss is reported through the handler.
	survivable atomic.Bool
	peerDown   func(peer int, cause error) // runs on the dispatch goroutine
	downed     []atomic.Bool               // by peer rank
	downCause  []error                     // guarded by failMu

	// Optional periodic tick, run on the dispatch goroutine (heartbeats,
	// deadline sweeps). Set before use.
	tick      func()
	tickEvery time.Duration

	// ring is this rank's span ring (nil unless tracing is on);
	// installed by the conduit via SetObs.
	ring *obs.Ring
}

// SetObs installs the rank's span ring on the endpoint's flush and
// blocking-wait paths.
func (ep *TCPEndpoint) SetObs(ring *obs.Ring) { ep.ring = ring }

// SetFault installs a fault injector consulted on every outgoing remote
// frame. A nil injector (the default) costs one predictable branch.
// Install before Connect.
func (ep *TCPEndpoint) SetFault(inj *fault.Injector) { ep.inj = inj }

// SetPeerDownHandler switches the endpoint to survivable peer loss:
// instead of tearing the whole endpoint down, a lost peer retires only
// its own connection, fn runs on the dispatch goroutine (after every
// frame that peer had already delivered), and subsequent sends to the
// peer return a PeerDownError. Without it the legacy whole-endpoint
// teardown applies.
func (ep *TCPEndpoint) SetPeerDownHandler(fn func(peer int, cause error)) {
	ep.failMu.Lock()
	ep.peerDown = fn
	ep.failMu.Unlock()
	ep.survivable.Store(fn != nil)
}

// SetTick installs fn to run on the dispatch goroutine roughly every d,
// whether the rank is polling or blocked in WaitFor — which is what
// lets heartbeat and deadline machinery make progress while the rank
// sits in a blocking wait. One one-shot timer per endpoint marks the
// tick due and wakes the rank through the inbox like any other wake, so
// a blocked wait arms nothing of its own; the dispatch goroutine re-arms
// the timer after it has run the tick, so the timer's callback takes no
// lock and a rank that is busy computing has at most one firing
// outstanding however long it stays away. It replaces any tick
// installed before (a nil fn installs none). Call it from the rank's
// goroutine, before the job issues traffic.
func (ep *TCPEndpoint) SetTick(d time.Duration, fn func()) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.ticker != nil {
		ep.ticker.Stop()
		ep.ticker = nil
	}
	ep.tick, ep.tickEvery = fn, d
	if fn == nil {
		return
	}
	select {
	case <-ep.done:
		return // shutdown has run; nothing would stop a timer armed now
	default:
	}
	ep.ticker = time.AfterFunc(d, func() {
		ep.tickDue.Store(true)
		ep.Wake()
	})
}

// runDueTick fires the tick if the timer marked it due and arms the
// timer for the next one. Dispatch goroutine only (ticker is written by
// SetTick on this goroutine; shutdown only stops it).
func (ep *TCPEndpoint) runDueTick() {
	if !ep.tickDue.Load() {
		return
	}
	ep.tickDue.Store(false)
	if ep.tick == nil {
		return // a firing of a tick since removed
	}
	ep.tick()
	select {
	case <-ep.done:
		// Closed: the tick stops with the endpoint.
	default:
		ep.ticker.Reset(ep.tickEvery)
	}
}

// PeerDown reports whether peer's connection has been retired (only in
// survivable mode; a legacy endpoint tears down whole instead).
func (ep *TCPEndpoint) PeerDown(peer int) bool {
	return ep.downed != nil && ep.downed[peer].Load()
}

// peerDownErr builds the typed send error for a retired peer.
func (ep *TCPEndpoint) peerDownErr(peer int) error {
	ep.failMu.Lock()
	cause := ep.downCause[peer]
	ep.failMu.Unlock()
	return &PeerDownError{Peer: peer, Cause: cause}
}

// peerLost routes a dead peer connection: survivable endpoints retire
// just that peer, legacy endpoints tear down whole. Safe from any
// goroutine.
func (ep *TCPEndpoint) peerLost(peer int32, cause error) {
	if !ep.survivable.Load() {
		ep.fail(cause)
		return
	}
	ep.markPeerDown(peer, cause)
}

// markPeerDown retires one peer connection exactly once and enqueues
// the synthetic peerDown message behind everything the peer already
// delivered.
func (ep *TCPEndpoint) markPeerDown(peer int32, cause error) {
	if ep.retire(peer, cause) {
		ep.deliver(Message{From: peer, To: ep.rank, Handler: peerDownHandler})
	}
}

// retire closes peer's connection and drops its send queue, and reports
// whether this call was the one that did: the caller then has the
// peerDown message to hand to dispatch.
func (ep *TCPEndpoint) retire(peer int32, cause error) bool {
	if ep.downed[peer].Swap(true) {
		return false
	}
	ep.failMu.Lock()
	ep.downCause[peer] = cause
	ep.failMu.Unlock()
	obs.Logf(1, int(ep.rank), "transport: peer %d down: %v", peer, cause)
	ep.mu.Lock()
	if c := ep.conns[peer]; c != nil {
		c.Close()
		ep.conns[peer] = nil
	}
	if ep.qs != nil && ep.qs[peer] != nil {
		ep.qs[peer].free()
		ep.qs[peer] = nil
	}
	ep.mu.Unlock()
	return true
}

// deliver puts m in the inbox, blocking while it is full, and reports
// false if the endpoint closed first; a rank blocked reading a peer's
// socket is interrupted to look at it. The common case — room in the
// inbox — is one non-blocking channel send; only a full inbox pays for
// the two-way select.
func (ep *TCPEndpoint) deliver(m Message) bool {
	select {
	case ep.inbox <- m:
	default:
		select {
		case ep.inbox <- m:
		case <-ep.done:
			return false
		}
	}
	ep.interrupt()
	return true
}

// Wake makes a WaitFor blocked on this endpoint re-evaluate its
// predicate by enqueueing a synthetic message through the inbox, and
// ends the read a rank blocked on its peer's socket is in (a read
// deadline in the past). It never blocks, so it is safe from any
// goroutine, any number of times:
// it is how non-SPMD threads (an HTTP server, a signal handler, the
// shm doorbell reader, the tick timer) and co-located ranks of this
// process (an shm bell, rung from inside their own Send or Poll) nudge
// the rank's progress loop after publishing work for it.
//
// At most one wake message is ever queued. The caller publishes its
// state, then sets wakeQueued; the dispatch goroutine clears
// wakeQueued when it dequeues the message and only then re-evaluates
// predicates (the Dekker order of the shm wake word, on one word). So a
// Wake that finds the word set is covered by a message the rank has
// not acted on yet, and returns without touching the inbox — which is
// why neither a 20 us re-poll timer nor a burst of HTTP handlers can
// fill it. The Wake that sets the word must get its message in, since
// others may have coalesced into it; with the inbox full of frames it
// hands the send to a goroutine of its own rather than wait for room
// itself — two ranks that ring each other from handlers would
// otherwise each wait for the other to drain.
func (ep *TCPEndpoint) Wake() {
	if ep.wakeQueued.Swap(true) {
		ep.wakesCoalesced.Add(1)
		return
	}
	m := Message{From: ep.rank, To: ep.rank, Handler: wakeHandler}
	select {
	case ep.inbox <- m:
		ep.interrupt()
	default:
		go ep.deliver(m)
	}
}

// SeverPeer forcibly closes the connection to peer, as if the link had
// died: the local side observes peer loss through the usual path
// (peer-down in survivable mode, teardown otherwise) and the remote
// side sees an unannounced EOF.
func (ep *TCPEndpoint) SeverPeer(peer int, cause error) {
	if cause == nil {
		cause = fmt.Errorf("transport: rank %d severed connection to rank %d", ep.rank, peer)
	}
	ep.peerLost(int32(peer), cause)
}

// Abort closes the endpoint immediately WITHOUT the goodbye exchange,
// so every peer observes the close as unannounced peer loss — the
// in-process simulation of a killed rank.
func (ep *TCPEndpoint) Abort() { ep.shutdown() }

// fail records the first peer-loss error and tears the endpoint down so
// every blocked operation returns it instead of hanging. Called from
// reader goroutines, so it must not wait for them (see Close).
func (ep *TCPEndpoint) fail(err error) {
	ep.failMu.Lock()
	if ep.failure == nil {
		ep.failure = err
	}
	ep.failMu.Unlock()
	ep.shutdown()
}

// Err returns the peer-loss error that tore the endpoint down, or nil.
func (ep *TCPEndpoint) Err() error {
	ep.failMu.Lock()
	defer ep.failMu.Unlock()
	return ep.failure
}

// closedErr is what blocked operations return once done is closed: the
// peer-loss cause when there is one, plain ErrClosed otherwise.
func (ep *TCPEndpoint) closedErr() error {
	if err := ep.Err(); err != nil {
		return err
	}
	return ErrClosed
}

// Rank returns this endpoint's rank; Ranks the job size.
func (ep *TCPEndpoint) Rank() int  { return int(ep.rank) }
func (ep *TCPEndpoint) Ranks() int { return int(ep.n) }

// Dropped reports how many delivered messages named a handler index
// that was out of range or unregistered (each is dropped rather than
// crashing the dispatch loop; a correct peer never sends one).
func (ep *TCPEndpoint) Dropped() int64 { return ep.dropped.Load() }

// Counters reports the endpoint's exact system-call accounting:
// net_rx_reads and net_rx_frames (Reads made on the peer sockets —
// those a deadline interrupted before any byte came excepted — and
// frames parsed), net_rx_direct (frames the rank read itself in
// WaitFor, not through a reader goroutine), net_rx_handovers (read
// sides passed between a reader goroutine and the rank), net_rx_landed
// (frames read straight to their destination) and
// net_rx_land_fallbacks (long frames the per-sender order rule sent
// down the pooled path), net_tx_frames and net_tx_writevs (frames
// queued for a peer and vectored writes that shipped them), and
// net_wakes_coalesced (Wakes that found a wake already queued). Safe
// from any goroutine.
func (ep *TCPEndpoint) Counters() map[string]float64 {
	var reads, frames, direct, handovers, landed, fallbacks int64
	for r, rx := range ep.rxs {
		if rx != nil {
			reads += rx.reads.Load()
			frames += rx.frames.Load()
			direct += rx.direct.Load()
			handovers += rx.handovers.Load()
			landed += rx.landed.Load()
			fallbacks += ep.sites[r].fallbacks.Load()
		}
	}
	ep.mu.Lock()
	txFrames, txWritevs := ep.txFrames, ep.txWritevs
	ep.mu.Unlock()
	return map[string]float64{
		"net_rx_reads":          float64(reads),
		"net_rx_frames":         float64(frames),
		"net_rx_direct":         float64(direct),
		"net_rx_handovers":      float64(handovers),
		"net_rx_landed":         float64(landed),
		"net_rx_land_fallbacks": float64(fallbacks),
		"net_tx_frames":         float64(txFrames),
		"net_tx_writevs":        float64(txWritevs),
		"net_wakes_coalesced":   float64(ep.wakesCoalesced.Load()),
	}
}

// dispatch routes one message to its handler, tolerating bogus indices.
// Pooled payloads (rx-loop buffers, owned loopbacks) return to the
// frame pool when the handler does — a handler that needs the bytes
// past its return copies them — which is what keeps the steady-state
// receive loop at zero allocations per frame.
func (ep *TCPEndpoint) dispatch(m Message) {
	if m.Handler == wakeHandler {
		// Delivery itself was the point: WaitFor re-runs its predicate.
		// Clear the word first (Swap, so this observes the Wake that set
		// it and everything published before it).
		ep.wakeQueued.Swap(false)
		ep.runDueTick()
		return
	}
	if m.Handler == peerDownHandler {
		ep.failMu.Lock()
		fn, cause := ep.peerDown, ep.downCause[m.From]
		ep.failMu.Unlock()
		if fn != nil {
			fn(int(m.From), cause)
		}
		return
	}
	if int(m.Handler) >= len(ep.handlers) || ep.handlers[m.Handler] == nil {
		ep.dropped.Add(1)
		if m.pooled {
			frames.Put(m.Payload)
		}
	} else {
		ep.handlers[m.Handler](ep, m)
		if m.pooled {
			frames.Put(m.Payload)
		}
	}
	if m.From != ep.rank {
		// A peer's frame (recv stamps From with its sender) is done
		// with: its sender's next long frame may land.
		ep.dispatched[m.From].Add(1)
	}
}

// putHeader serializes a frame header announcing an n-byte payload:
// [to][from][handler][arg][len].
func putHeader(hdr []byte, m Message, n int) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.To))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.From))
	binary.LittleEndian.PutUint16(hdr[8:], m.Handler)
	binary.LittleEndian.PutUint64(hdr[10:], m.Arg)
	binary.LittleEndian.PutUint64(hdr[18:], uint64(n))
}

// writeFrame serializes one message directly to w (the Connect hello
// exchange; steady-state traffic goes through the vectored queues).
func writeFrame(w io.Writer, m Message) error {
	var hdr [frameHdrLen]byte
	putHeader(hdr[:], m, len(m.Payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// parseHeader decodes a frame header into a payload-less message and
// the announced payload length, refusing an over-limit length before
// anything is allocated for it.
func parseHeader(hdr []byte) (Message, int, error) {
	m := Message{
		To:      int32(binary.LittleEndian.Uint32(hdr[0:])),
		From:    int32(binary.LittleEndian.Uint32(hdr[4:])),
		Handler: binary.LittleEndian.Uint16(hdr[8:]),
		Arg:     binary.LittleEndian.Uint64(hdr[10:]),
	}
	n := binary.LittleEndian.Uint64(hdr[18:])
	if n > MaxPayload {
		return Message{}, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	return m, int(n), nil
}

// readFrame deserializes one message with a read for the header and a
// read for the payload: the Connect hello exchange, and the reference
// decoder the rx parser is fuzzed against. Steady-state traffic goes
// through frameReader.next.
func readFrame(r io.Reader) (Message, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	m, n, err := parseHeader(hdr[:])
	if err != nil {
		return Message{}, err
	}
	if n > 0 {
		m.Payload = frames.Get(n)
		m.pooled = true
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			frames.Put(m.Payload)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header came: the frame is cut
			}
			return Message{}, err
		}
	}
	return m, nil
}

// ListenTCP creates an endpoint for the given rank of an n-rank job,
// listening on addr (use "127.0.0.1:0" to pick a free port). Connect must
// be called with everyone's advertised addresses before sending.
func ListenTCP(rank, n int, addr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ep := &TCPEndpoint{
		rank:       int32(rank),
		n:          int32(n),
		ln:         ln,
		handlers:   make([]Handler, 256),
		conns:      make([]net.Conn, n),
		inbox:      make(chan Message, InboxSlots),
		done:       make(chan struct{}),
		rxs:        make([]*frameReader, n),
		sites:      make([]*rxLanding, n),
		dispatched: pad.Slice[atomic.Int64](n),
		downed:     make([]atomic.Bool, n),
		downCause:  make([]error, n),
		aff:        -1,
		cand:       -1,
	}
	ep.direct.Store(-1)
	for r := range ep.rxs {
		if r != rank {
			s := &rxLanding{ep: ep, peer: int32(r)}
			s.ended.L = &s.mu
			ep.sites[r] = s
			rx := &frameReader{site: s, resume: make(chan struct{}, 1)}
			rx.span = time.AfterFunc(handbackSpan, func() { ep.spanElapsed(rx) })
			ep.rxs[r] = rx
		}
	}
	return ep, nil
}

// Addr returns the endpoint's advertised listen address.
func (ep *TCPEndpoint) Addr() string { return ep.ln.Addr().String() }

// Register installs a handler at the given index (all endpoints must
// agree on the mapping, as with GASNet handler tables).
func (ep *TCPEndpoint) Register(idx uint16, h Handler) { ep.handlers[idx] = h }

// Connect wires the full mesh: ranks below us dial in, we dial ranks
// above us (a deterministic pairing that avoids duplicate connections).
// addrs is indexed by rank.
func (ep *TCPEndpoint) Connect(addrs []string) error { return ep.ConnectBy(addrs, time.Time{}) }

// ConnectBy is Connect bounded by deadline (zero: unbounded): a peer
// that died before dialing fails it, naming every rank that never did.
func (ep *TCPEndpoint) ConnectBy(addrs []string, deadline time.Time) error {
	var wg sync.WaitGroup
	var acceptErr error
	expect := int(ep.rank) // ranks 0..rank-1 dial us
	if d, ok := ep.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(deadline)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < expect; i++ {
			c, err := ep.ln.Accept()
			if err != nil {
				var missing []int // this goroutine alone writes conns[:expect]
				for r, c := range ep.conns[:expect] {
					if c == nil {
						missing = append(missing, r)
					}
				}
				acceptErr = fmt.Errorf("transport: rank %d: ranks %v never dialed: %w", ep.rank, missing, err)
				return
			}
			// The dialer announces itself with one frame.
			c.SetReadDeadline(deadline)
			m, err := readFrame(c)
			if err != nil {
				c.Close()
				acceptErr = err
				return
			}
			c.SetReadDeadline(time.Time{})
			ep.mu.Lock()
			ep.conns[m.From] = c
			ep.mu.Unlock()
		}
	}()
	dialer := net.Dialer{Deadline: deadline}
	for r := int(ep.rank) + 1; r < int(ep.n); r++ {
		c, err := dialer.Dial("tcp", addrs[r])
		if err != nil {
			return fmt.Errorf("transport: rank %d dialing %d: %w", ep.rank, r, err)
		}
		if err := writeFrame(c, Message{From: ep.rank, To: int32(r), Handler: helloHandler}); err != nil {
			return err
		}
		ep.mu.Lock()
		ep.conns[r] = c
		ep.mu.Unlock()
	}
	wg.Wait()
	if acceptErr != nil {
		return acceptErr
	}
	// Give every connection a vectored send queue: frames accumulate as
	// header-slab and payload iovecs and ship as one writev-backed
	// WriteTo per flush, instead of a syscall pair (or a copy into a
	// buffered writer) each — which is what lets pipelined non-blocking
	// operations (GetAsync storms, the aggregation plane) actually
	// overlap, with zero payload copies on the tx path. Flushed whenever
	// this rank is about to block (WaitFor), at the end of every Poll,
	// and inline once a queue passes flushThreshold, so no frame can sit
	// queued while its sender sleeps.
	ep.qs = make([]*outQ, ep.n)
	for r, c := range ep.conns {
		if c != nil {
			ep.qs[r] = &outQ{run: -1}
		}
	}
	// One reader goroutine per peer feeds the inbox whenever the rank
	// does not read that socket itself. A read error with the endpoint
	// still open means the peer died mid-job: surface it and tear down,
	// so ranks blocked on that peer fail loudly instead of hanging (and
	// a launcher's smoke run exits instead of timing out).
	for r := int32(0); r < ep.n; r++ {
		if r == ep.rank {
			continue
		}
		ep.rxs[r].c, ep.rxs[r].rank = ep.conns[r], ep.newRankReader(ep.conns[r])
		ep.wg.Add(1)
		go ep.readLoop(r, ep.rxs[r])
	}
	return nil
}

// Send queues a message for the target rank (loopback is delivered
// through the inbox like any other message). Remote frames accumulate
// in a per-peer vectored queue and ship when the queue passes the
// inline-flush threshold, when this endpoint is about to block in
// WaitFor, at the end of Poll, or at an explicit Flush — so a caller
// that sends and then stops making progress calls must Flush.
//
// Ownership: Send BORROWS the payload until the flush that ships it
// (payloads of at most InlineMax bytes are copied at the call, ending
// the borrow immediately). Callers that mutate or recycle the payload
// before then must use SendOwned. Payloads over MaxPayload and sends on
// a closed endpoint are rejected up front.
func (ep *TCPEndpoint) Send(m Message) error { return ep.enqueue(m, nil, false) }

// SendOwned is Send with ownership transfer: the payload belongs to the
// transport from the call on and is released to the frame pool once the
// frame has shipped (or on any error path), so callers can hand over
// pooled buffers without waiting for a flush. The caller must not touch
// the payload after the call.
func (ep *TCPEndpoint) SendOwned(m Message) error { return ep.enqueue(m, nil, true) }

// SendLong is Send of a long message in two parts: the frame's payload
// is m.Payload (header words, inlined into the slab when small)
// followed by data, queued as its own iovec — so a caller's bulk buffer
// reaches the socket with no copy on the way. data is borrowed like
// Send's payload, until the flush that ships it; the receiver sees one
// payload.
func (ep *TCPEndpoint) SendLong(m Message, data []byte) error { return ep.enqueue(m, data, false) }

// disposeOwned releases an owned payload on a path where the frame
// never ships.
func disposeOwned(m Message, owned bool) {
	if owned {
		frames.Put(m.Payload)
	}
}

func (ep *TCPEndpoint) enqueue(m Message, tail []byte, owned bool) error {
	if n := len(m.Payload) + len(tail); n > MaxPayload {
		disposeOwned(m, owned)
		return fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, n)
	}
	select {
	case <-ep.done:
		disposeOwned(m, owned)
		return ep.closedErr()
	default:
	}
	m.From = ep.rank
	if m.To == ep.rank {
		if len(tail) > 0 {
			// A loopback long message is delivered as one payload, the
			// way the wire would deliver it.
			p := append(frames.Get(len(m.Payload) + len(tail))[:0], m.Payload...)
			disposeOwned(m, owned)
			m.Payload, owned = append(p, tail...), true
		}
		// Loopback: an owned payload rides the pooled-release path
		// through dispatch, exactly like an rx buffer.
		m.pooled = owned
		if !ep.deliver(m) {
			disposeOwned(m, owned)
			return ep.closedErr()
		}
		return nil
	}
	if ep.downed[m.To].Load() {
		disposeOwned(m, owned)
		return ep.peerDownErr(int(m.To))
	}
	if act, fired := ep.inj.OnSend(int(m.To), m.Handler); fired {
		switch act.Kind {
		case fault.Drop:
			disposeOwned(m, owned)
			return nil // the frame silently vanishes
		case fault.Delay:
			time.Sleep(act.Delay)
		case fault.Sever:
			// The sever writes a header-only torn frame; the payload
			// itself never ships.
			disposeOwned(m, owned)
			return ep.severFrame(m, len(m.Payload)+len(tail))
		}
	}
	ep.mu.Lock()
	q := ep.qs[m.To]
	if q == nil {
		ep.mu.Unlock()
		disposeOwned(m, owned)
		return fmt.Errorf("transport: no connection to rank %d", m.To)
	}
	q.enqueue(m, tail, owned)
	ep.txFrames++
	var err error
	if q.qn >= flushThreshold {
		err = ep.ship(int(m.To))
	} else if !ep.txPending.Load() {
		ep.txPending.Store(true)
	}
	ep.mu.Unlock()
	if err != nil {
		return ep.flushFailed(m.To, err)
	}
	return nil
}

// ship writes peer's queue out, counting the write. Caller holds mu.
//
// A write to a peer whose read side the rank owns may block on the peer
// — which may be blocked writing to us — so the side goes back to its
// reader goroutine first when the write looks like a stream's: a queue
// past flushThreshold, or the streamShips-th write since the rank last
// read the peer. A round trip writes once per read and keeps the side.
func (ep *TCPEndpoint) ship(peer int) error {
	q := ep.qs[peer]
	if q.qn == 0 {
		return nil
	}
	if rx := ep.rxs[peer]; rx.own.Load() == rxRank && (q.qn >= flushThreshold || rx.shipped.Add(1) >= streamShips) {
		ep.handBack(rx)
	}
	ep.txWritevs++
	return q.ship(ep.conns[peer])
}

// flushFailed routes a failed vectored write into the peer-loss path
// (outside ep.mu — markPeerDown retakes it) and returns the typed send
// error the caller should see.
func (ep *TCPEndpoint) flushFailed(peer int32, err error) error {
	cause := fmt.Errorf("transport: rank %d flushing to rank %d: %w", ep.rank, peer, err)
	ep.peerLost(peer, cause)
	if ep.survivable.Load() {
		return ep.peerDownErr(int(peer))
	}
	return cause
}

// severFrame executes an injected mid-frame sever: it writes only the
// frame header (announcing a payload that never follows) and closes
// the connection, so the peer's next read fails with an unexpected EOF
// partway through a frame — the worst-shaped cut a real link failure
// produces. The local side then routes through the normal peer-loss
// path and the caller gets the typed peer-down error.
func (ep *TCPEndpoint) severFrame(m Message, n int) error {
	ep.mu.Lock()
	if q := ep.qs[m.To]; q != nil {
		var hdr [frameHdrLen]byte
		putHeader(hdr[:], m, n+1)
		q.slabAppend(hdr[:])
		_ = ep.ship(int(m.To))
	}
	c := ep.conns[m.To]
	ep.mu.Unlock()
	cause := fmt.Errorf("transport: fault injection severed rank %d's connection to rank %d mid-frame",
		ep.rank, m.To)
	if c != nil {
		c.Close()
	}
	ep.peerLost(m.To, cause)
	if ep.survivable.Load() {
		return ep.peerDownErr(int(m.To))
	}
	return cause
}

// Flush ships every queued frame now. Callers that send and then
// neither poll nor wait (a collective root answering its children
// after its own wait completed) must flush, or the frames sit queued
// while the peers sleep.
func (ep *TCPEndpoint) Flush() { ep.flushOut() }

// flushOut ships every queued frame, one vectored write per peer. A
// failed write means that peer's connection is dead: the failure routes
// into the peer-loss path (peer-down retirement in survivable mode,
// whole-endpoint teardown otherwise) after ep.mu is released — so a
// dead peer surfaces at flush time instead of waiting for the reader
// goroutine to notice, and a flush error is never silently swallowed.
func (ep *TCPEndpoint) flushOut() { ep.routeFailures(ep.shipAll()) }

// shipFailure is a peer whose vectored write failed, and why.
type shipFailure struct {
	peer int32
	err  error
}

// shipAll is flushOut's writing half: it returns the failures for the
// caller to route once it holds neither ep.mu (markPeerDown retakes it)
// nor a read of a socket the routing may close.
func (ep *TCPEndpoint) shipAll() []shipFailure {
	if !ep.txPending.Load() {
		return nil
	}
	var failed []shipFailure
	ep.mu.Lock()
	ep.txPending.Store(false)
	buffered := 0
	for r, q := range ep.qs {
		if q == nil || q.qn == 0 {
			continue
		}
		buffered += q.qn
		if err := ep.ship(r); err != nil {
			failed = append(failed, shipFailure{int32(r), err})
		}
	}
	ep.mu.Unlock()
	if buffered > 0 && ep.ring != nil {
		ep.ring.Instant(obs.KNetFlush, -1, uint32(buffered), 0)
	}
	return failed
}

// routeFailures routes failed writes into the peer-loss path.
func (ep *TCPEndpoint) routeFailures(failed []shipFailure) {
	for _, f := range failed {
		_ = ep.flushFailed(f.peer, f.err)
	}
}

// Poll dispatches queued messages to their handlers without blocking and
// reports how many ran. Buffered outgoing frames (including replies the
// handlers just wrote) are flushed before returning. A Poll that finds
// nothing to dispatch tells the rank's read-side affinity that the rank
// polls for its messages rather than parks on a peer (pollMissed).
func (ep *TCPEndpoint) Poll() int {
	n := 0
	for {
		select {
		case m := <-ep.inbox:
			ep.dispatch(m)
			n++
		default:
			if n == 0 {
				ep.pollMissed()
			}
			ep.flushOut()
			return n
		}
	}
}

// WaitFor polls (blocking) until pred() is true. Buffered outgoing
// frames are flushed whenever the wait is about to block, so a peer
// can never be left waiting on a frame parked in our write buffer —
// and not before, so the replies to frames that arrived together leave
// together.
//
// The block is one of two. With the read side of its affinity peer —
// the peer whose frames ended its last parks — the rank blocks in that
// socket's read and dispatches each frame it parses (readOwned); every
// other peer's frames, loopback sends, external wakes, the periodic
// tick and endpoint close reach it through the inbox, and anything put
// there ends the read. Otherwise it blocks in one plain receive on the
// inbox. Either way a blocked wait arms no timer and runs no multi-way
// select; it allocates nothing but the *net.OpError Go returns when a
// wake ends a read of the socket.
func (ep *TCPEndpoint) WaitFor(pred func() bool) error {
	if !pred() && ep.ring != nil {
		ep.ring.Begin(obs.KNetWait, -1, 0)
		defer ep.ring.End(obs.KNetWait)
	}
	for !pred() {
		select {
		case m := <-ep.inbox:
			ep.waitDispatch(m)
			continue
		default:
		}
		// shutdown closes done and then wakes the inbox, so a close is
		// seen here either before blocking or on the wake's way round.
		select {
		case <-ep.done:
			return ep.closedErr()
		default:
		}
		if ep.readOwned() {
			continue
		}
		ep.flushOut()
		m := <-ep.inbox
		ep.woke = true
		ep.waitDispatch(m)
	}
	ep.flushOut()
	return nil
}

// waitDispatch is WaitFor's dispatch: the first message after a park
// is what ended it, and votes (vote).
func (ep *TCPEndpoint) waitDispatch(m Message) {
	if ep.woke {
		ep.woke = false
		from := int32(-1)
		if m.From != ep.rank && m.Handler < wakeHandler {
			from = m.From
		}
		ep.vote(from)
	}
	ep.dispatch(m)
}

// Goodbye announces a clean close to every peer, so the EOF they see
// when this endpoint closes reads as orderly teardown rather than peer
// loss. Call it only after the job's final synchronization point, right
// before Close; a rank that dies early must NOT say goodbye — the
// unannounced EOF is what propagates the abort to its peers.
func (ep *TCPEndpoint) Goodbye() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for r, q := range ep.qs {
		if q == nil {
			continue
		}
		// Best-effort: an unreachable peer is already tearing down.
		q.enqueue(Message{From: ep.rank, To: int32(r), Handler: byeHandler}, nil, false)
		ep.txFrames++
		_ = ep.ship(r)
	}
}

// shutdown closes the listener and every connection without waiting for
// the reader goroutines (fail is called from one of them); a closed
// connection also ends a read the rank is blocked in.
func (ep *TCPEndpoint) shutdown() {
	ep.closeOnce.Do(func() {
		close(ep.done)
		ep.ln.Close()
		ep.mu.Lock()
		for _, c := range ep.conns {
			if c != nil {
				c.Close()
			}
		}
		if ep.ticker != nil {
			ep.ticker.Stop()
		}
		ep.mu.Unlock()
		for _, rx := range ep.rxs {
			if rx != nil {
				rx.span.Stop()
			}
		}
		ep.Wake() // a rank blocked in WaitFor wakes to find done closed
	})
}

// Close tears the endpoint down; safe to call more than once.
func (ep *TCPEndpoint) Close() error {
	ep.shutdown()
	ep.wg.Wait()
	return nil
}
