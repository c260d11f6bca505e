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

	// Landed is set on a received frame whose payload the reader placed
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
// peerDown message through the inbox, so the loss is observed on the
// dispatch goroutine strictly after every frame that peer delivered.
// wake is also synthesized locally: Wake enqueues one through the
// inbox so a blocked WaitFor re-runs its predicate. It carries no
// payload; the periodic tick and endpoint close reach a blocked rank as
// the same message, so the inbox is the only thing a rank ever blocks
// on. wake is the lowest of them: readLoop refuses every id from it up,
// bye excepted, once Connect is done.
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

	// inbox is the one thing a rank blocks on: frames from the reader
	// goroutines, loopback sends, and the synthetic peerDown and wake
	// messages, InboxSlots of them.
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
	if ep.downed[peer].Swap(true) {
		return
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
	ep.deliver(Message{From: peer, To: ep.rank, Handler: peerDownHandler})
}

// deliver puts m in the inbox, blocking while it is full, and reports
// false if the endpoint closed first. The common case — room in the
// inbox — is one non-blocking channel send; only a full inbox pays for
// the two-way select.
func (ep *TCPEndpoint) deliver(m Message) bool {
	select {
	case ep.inbox <- m:
		return true
	default:
	}
	select {
	case ep.inbox <- m:
		return true
	case <-ep.done:
		return false
	}
}

// Wake makes a WaitFor blocked on this endpoint re-evaluate its
// predicate by enqueueing a synthetic message through the inbox. It
// never blocks, so it is safe from any goroutine, any number of times:
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
// net_rx_reads and net_rx_frames (Reads the per-peer readers made and
// frames they parsed), net_rx_landed (frames read straight to their
// destination) and net_rx_land_fallbacks (long frames the per-sender
// order rule sent down the pooled path), net_tx_frames and
// net_tx_writevs (frames queued for a peer and vectored writes that
// shipped them), and net_wakes_coalesced (Wakes that found a wake
// already queued). Safe from any goroutine.
func (ep *TCPEndpoint) Counters() map[string]float64 {
	var reads, frames, landed, fallbacks int64
	for r, rx := range ep.rxs {
		if rx != nil {
			reads += rx.reads.Load()
			frames += rx.frames.Load()
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
		// A reader's frame (readLoop stamps From with its peer) is done
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
// through frameReader.
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

// frameReader is one peer connection's receive side: a small buffer
// filled by one Read per wake-up, out of which every complete frame is
// parsed. Each payload is copied into its own size-classed pooled
// frame, so ownership downstream (dispatch's release) is what it was
// when every frame was read into its pooled buffer directly; a
// payload that runs past the buffer gets its pooled frame, the
// buffered prefix, and the remainder read straight into it — unless it
// is long and its site places it: then the buffered part is copied to
// the destination the site names and the rest is read straight there.
//
// Every field is the reader goroutine's own; reads, frames and landed
// are atomics only so Counters may fold them from another goroutine.
type frameReader struct {
	_         pad.Line
	buf       [rxBufLen]byte
	r, w      int         // buf[r:w] is received and not yet parsed
	site      landingSite // nil: every payload takes the pooled path
	delivered int64       // frames readLoop has put in the inbox
	reads     atomic.Int64
	frames    atomic.Int64
	landed    atomic.Int64
	_         pad.Line
}

// landingSite is what a frameReader asks, for each long frame, whether
// and where its payload lands. The endpoint's is rxLanding; tests plug
// in their own.
type landingSite interface {
	// prefix reports how many leading payload bytes claim must see to
	// decide on a frame for handler h, or -1 for the pooled path.
	// delivered is how many frames the reader has delivered before it.
	prefix(h uint16, delivered int64) int
	// claim returns where the rest bytes after prefix go, with head —
	// the part of them that arrived with the header — already copied
	// into its start, or nil to decline (the whole payload then takes
	// the pooled path).
	claim(h uint16, arg uint64, prefix, head []byte, rest int) []byte
	// release ends a claim: ok reports that the payload arrived whole.
	release(ok bool)
}

// LanderPrefix is how many leading payload bytes the Lander sees before
// it decides: the offset word a one-sided put leads with.
const LanderPrefix = 8

// Lander places the payload of a long frame at its destination: it runs
// on the connection's reader goroutine with the payload's first
// LanderPrefix bytes and head — the part of the remaining rest bytes
// that arrived with the header. It returns the rest-byte window the
// payload goes to, with head already copied into its start, or nil to
// decline (the frame then takes the pooled path, and its handler sees
// the whole payload). The reader fills the window before the frame —
// with Landed set and no Payload — reaches the handler.
type Lander func(prefix, head []byte, rest int) []byte

type lander struct {
	h  uint16
	fn Lander
}

// rxLanding is the endpoint's landing site for one peer's reader: the
// endpoint's lander, under the per-sender order rule, and the one reply
// landing a blocked requester may hold.
type rxLanding struct {
	ep        *TCPEndpoint
	peer      int32
	placing   Lander       // the lander whose claim is in progress; reader-own
	fallbacks atomic.Int64 // long frames the order rule sent down the pooled path

	mu    sync.Mutex
	ended sync.Cond // broadcast when a reply claim ends
	reply replySlot // guarded by mu
}

// replySlot is the reply landing one requester holds from ArmLanding to
// DisarmLanding. While it is held — armed, being read into, or holding
// its result — no other requester can arm it, so a wait nested inside
// the holder's (a task body that reads from the same peer) can neither
// overwrite nor consume it.
type replySlot struct {
	held   bool
	h      uint16
	arg    uint64
	dst    []byte // where the reply lands; nil once a claim has ended
	busy   bool   // the reader is reading into dst
	landed bool   // the reply arrived whole in dst
}

// prefix applies the order rule: the lander may place this peer's frame
// only when every frame the peer delivered before it has been
// dispatched, so nothing still queued (an aggregated put to the same
// words, say) can apply after it. Any other frame looks for the held
// reply landing, which needs no prefix.
func (s *rxLanding) prefix(h uint16, delivered int64) int {
	s.placing = nil
	if l := s.ep.lander.Load(); l != nil && l.h == h {
		if delivered != s.ep.dispatched[s.peer].Load() {
			s.fallbacks.Add(1)
			return -1
		}
		s.placing = l.fn
		return LanderPrefix
	}
	return 0
}

func (s *rxLanding) claim(h uint16, arg uint64, prefix, head []byte, rest int) []byte {
	if s.placing != nil {
		return s.placing(prefix, head, rest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &s.reply
	if r.dst == nil || r.busy || r.h != h || r.arg != arg || len(r.dst) != rest {
		return nil
	}
	r.busy = true
	copy(r.dst, head)
	return r.dst
}

// release ends a reply claim. The slot is still its holder's — ArmLanding
// refuses a held slot and DisarmLanding waits out a busy one — so only
// the outcome changes.
func (s *rxLanding) release(ok bool) {
	if s.placing != nil {
		return
	}
	s.mu.Lock()
	s.reply.busy, s.reply.dst, s.reply.landed = false, nil, ok
	s.mu.Unlock()
	s.ended.Broadcast()
}

// SetLander installs fn (nil removes it) as the lander for handler h's
// long frames: it is offered every one whose sender's earlier frames
// have all been dispatched. An endpoint has one lander. Safe while
// traffic flows: a frame that arrives before it takes the pooled path.
func (ep *TCPEndpoint) SetLander(h uint16, fn Lander) {
	var l *lander
	if fn != nil {
		l = &lander{h: h, fn: fn}
	}
	ep.lander.Store(l)
}

// ArmLanding names dst as where the reply (h, arg) from peer lands: if
// it arrives as a long frame of exactly len(dst) payload bytes, the
// reader reads it straight into dst and delivers it with Landed set
// and no Payload. A peer has one landing: ArmLanding reports false, and
// arms nothing, while another requester holds it — that reply then
// takes the pooled path. After a true, the caller must
// DisarmLanding(peer, h, arg) before it next touches dst.
func (ep *TCPEndpoint) ArmLanding(peer int, h uint16, arg uint64, dst []byte) bool {
	s := ep.sites[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reply.held {
		return false
	}
	s.reply = replySlot{held: true, h: h, arg: arg, dst: dst}
	return true
}

// DisarmLanding gives up the landing (h, arg) armed on peer and reports
// whether the reply arrived whole in it; for any other token it does
// nothing and reports false. If the reader is reading into the landing,
// DisarmLanding waits until it is done — which a closed or severed
// connection ends — so dst is never written after it returns.
func (ep *TCPEndpoint) DisarmLanding(peer int, h uint16, arg uint64) bool {
	s := ep.sites[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &s.reply
	if !r.held || r.h != h || r.arg != arg {
		return false
	}
	for r.busy {
		s.ended.Wait()
	}
	landed := r.landed
	*r = replySlot{}
	return landed
}

// fill reads from src into p until at least min bytes have arrived,
// counting each Read. An EOF before min is io.ErrUnexpectedEOF when it
// cuts a frame (partial is true or some bytes arrived) and a bare
// io.EOF at a frame boundary.
func (rx *frameReader) fill(src io.Reader, p []byte, min int, partial bool) (int, error) {
	n := 0
	for n < min {
		k, err := src.Read(p[n:])
		rx.reads.Add(1)
		n += k
		if err != nil && n < min {
			if err == io.EOF && (partial || n > 0) {
				err = io.ErrUnexpectedEOF
			}
			return n, err
		}
	}
	return n, nil
}

// next returns the next frame of the stream, reading only when the
// buffer holds less than the frame needs.
func (rx *frameReader) next(src io.Reader) (Message, error) {
	if have := rx.w - rx.r; have < frameHdrLen {
		// Move the partial header to the front so the one Read that
		// completes it can also bring in whatever follows.
		copy(rx.buf[:], rx.buf[rx.r:rx.w])
		rx.r, rx.w = 0, have
		n, err := rx.fill(src, rx.buf[have:], frameHdrLen-have, have > 0)
		rx.w += n
		if err != nil {
			return Message{}, err
		}
	}
	m, n, err := parseHeader(rx.buf[rx.r:])
	if err != nil {
		return Message{}, err
	}
	rx.r += frameHdrLen
	if n > LongPayload && rx.site != nil {
		if landed, err := rx.land(src, m.Handler, m.Arg, n); err != nil {
			return Message{}, err
		} else if landed {
			m.Landed = int32(n)
			return m, nil
		}
	}
	if n > 0 {
		m.Payload = frames.Get(n)
		m.pooled = true
		got := copy(m.Payload, rx.buf[rx.r:rx.w])
		rx.r += got
		if got < n {
			if _, err := rx.fill(src, m.Payload[got:], n-got, true); err != nil {
				frames.Put(m.Payload)
				return Message{}, err
			}
		}
	}
	rx.frames.Add(1)
	return m, nil
}

// land offers the long frame (h, arg) with an n-byte payload, whose
// header next has just consumed, to the site, and reads the payload to
// the destination the site names. A decline (false, nil) leaves the
// payload — prefix included, however much of it a Read had to bring
// in — unconsumed for the pooled path.
func (rx *frameReader) land(src io.Reader, h uint16, arg uint64, n int) (bool, error) {
	pre := rx.site.prefix(h, rx.delivered)
	if pre < 0 {
		return false, nil
	}
	if have := rx.w - rx.r; have < pre {
		copy(rx.buf[:], rx.buf[rx.r:rx.w])
		rx.r, rx.w = 0, have
		k, err := rx.fill(src, rx.buf[have:], pre-have, true)
		rx.w += k
		if err != nil {
			return false, err
		}
	}
	at := rx.r + pre
	head := rx.buf[at:min(rx.w, rx.r+n)]
	dst := rx.site.claim(h, arg, rx.buf[rx.r:at], head, n-pre)
	if dst == nil {
		return false, nil
	}
	rx.r = at + len(head)
	var err error
	if len(head) < len(dst) {
		_, err = rx.fill(src, dst[len(head):], len(dst)-len(head), true)
	}
	rx.site.release(err == nil)
	if err != nil {
		return false, err
	}
	rx.frames.Add(1)
	rx.landed.Add(1)
	return true, nil
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
	}
	for r := range ep.rxs {
		if r != rank {
			s := &rxLanding{ep: ep, peer: int32(r)}
			s.ended.L = &s.mu
			ep.sites[r] = s
			ep.rxs[r] = &frameReader{site: s}
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
	// One reader goroutine per peer feeds the inbox. A read error with
	// the endpoint still open means the peer died mid-job: surface it
	// and tear down, so ranks blocked on that peer fail loudly instead
	// of hanging (and a launcher's smoke run exits instead of timing out).
	for r := int32(0); r < ep.n; r++ {
		if r == ep.rank {
			continue
		}
		ep.wg.Add(1)
		go ep.readLoop(r, ep.conns[r], ep.rxs[r])
	}
	return nil
}

// readLoop is peer's reader goroutine: every frame rx parses off c goes
// to the inbox, in order. An EOF inside a frame is io.ErrUnexpectedEOF
// and, like any other read error, peer loss — unless the peer said bye
// first, or this side is closing.
func (ep *TCPEndpoint) readLoop(peer int32, c net.Conn, rx *frameReader) {
	defer ep.wg.Done()
	sawBye := false
	for {
		m, err := rx.next(c)
		if err != nil {
			if sawBye {
				return // peer announced a clean close
			}
			select {
			case <-ep.done: // deliberate Close on our side
			default:
				ep.peerLost(peer, fmt.Errorf("transport: rank %d lost connection to rank %d: %w",
					ep.rank, peer, err))
			}
			return
		}
		if m.Handler >= wakeHandler {
			if m.Handler == byeHandler {
				sawBye = true
				continue
			}
			// hello belongs to Connect; peer-down and wake only this
			// endpoint may synthesize. From the wire they are a framing
			// error, like an over-limit length.
			if m.pooled {
				frames.Put(m.Payload)
			}
			ep.peerLost(peer, fmt.Errorf("transport: rank %d: rank %d sent a frame with reserved handler id %#x",
				ep.rank, peer, m.Handler))
			return
		}
		m.From = peer // what the order rule's dispatched count is kept by
		if !ep.deliver(m) {
			return
		}
		rx.delivered++
	}
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
func (ep *TCPEndpoint) ship(peer int) error {
	if ep.qs[peer].qn == 0 {
		return nil
	}
	ep.txWritevs++
	return ep.qs[peer].ship(ep.conns[peer])
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
func (ep *TCPEndpoint) flushOut() {
	if !ep.txPending.Load() {
		return
	}
	var failedPeers []int32
	var failedErrs []error
	ep.mu.Lock()
	ep.txPending.Store(false)
	buffered := 0
	for r, q := range ep.qs {
		if q == nil || q.qn == 0 {
			continue
		}
		buffered += q.qn
		if err := ep.ship(r); err != nil {
			failedPeers = append(failedPeers, int32(r))
			failedErrs = append(failedErrs, err)
		}
	}
	ep.mu.Unlock()
	if buffered > 0 && ep.ring != nil {
		ep.ring.Instant(obs.KNetFlush, -1, uint32(buffered), 0)
	}
	// Route failures outside ep.mu: markPeerDown retakes it.
	for i, peer := range failedPeers {
		_ = ep.flushFailed(peer, failedErrs[i])
	}
}

// Poll dispatches queued messages to their handlers without blocking and
// reports how many ran. Buffered outgoing frames (including replies the
// handlers just wrote) are flushed before returning.
func (ep *TCPEndpoint) Poll() int {
	n := 0
	for {
		select {
		case m := <-ep.inbox:
			ep.dispatch(m)
			n++
		default:
			ep.flushOut()
			return n
		}
	}
}

// WaitFor polls (blocking) until pred() is true. Buffered outgoing
// frames are flushed whenever the wait is about to block, so a peer
// can never be left waiting on a frame parked in our write buffer.
//
// The block is one plain receive on the inbox: frames, loopback sends,
// external wakes, the periodic tick and endpoint close all arrive
// there (the last three as the one coalesced wake message), so a
// blocked wait arms no timer, runs no multi-way select and allocates
// nothing.
func (ep *TCPEndpoint) WaitFor(pred func() bool) error {
	if !pred() && ep.ring != nil {
		ep.ring.Begin(obs.KNetWait, -1, 0)
		defer ep.ring.End(obs.KNetWait)
	}
	for !pred() {
		select {
		case m := <-ep.inbox:
			ep.dispatch(m)
			continue
		default:
		}
		ep.flushOut()
		// shutdown closes done and then wakes the inbox, so a close is
		// seen here either before blocking or on the wake's way round.
		select {
		case <-ep.done:
			return ep.closedErr()
		default:
		}
		ep.dispatch(<-ep.inbox)
	}
	ep.flushOut()
	return nil
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
// the reader goroutines (fail is called from one of them).
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
		ep.Wake() // a rank blocked in WaitFor wakes to find done closed
	})
}

// Close tears the endpoint down; safe to call more than once.
func (ep *TCPEndpoint) Close() error {
	ep.shutdown()
	ep.wg.Wait()
	return nil
}
