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
// arrives whole with its header, and it is what a landing (Options.Lander,
// ArmLanding) can read straight to its destination. Every shorter frame
// takes the one rx path there is for it.
const LongPayload = rxBufLen - frameHdrLen

// TCPEndpoint is one rank's attachment to a full-mesh TCP fabric.
type TCPEndpoint struct {
	rank     int32
	n        int32
	ln       net.Listener
	handlers []Handler

	// Guarded by mu.
	conns  []net.Conn  // by peer rank; nil for self
	qs     []*outQ     // vectored send queue per peer, same indexing
	ticker *time.Timer // one-shot; marks opts.Tick due (ConnectBy arms it)

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

	// Peer-down survival: a survivable endpoint (opts.PeerDown set)
	// retires only a lost peer's connection; any other tears down whole.
	downed    []atomic.Bool // by peer rank
	downCause []error       // guarded by failMu

	// opts is everything the readers, the timers and the send path
	// consult, fixed by ConnectBy before any of them starts.
	opts Options
}

// Options configures an endpoint for its whole life: ConnectBy fixes
// them before it starts the reader goroutines and the tick, and nothing
// changes them after. The zero value is a plain endpoint — no fault
// injection, no spans, no landing, whole-endpoint teardown on a lost
// peer, no tick.
type Options struct {
	// Fault is consulted on every outgoing remote frame; nil costs one
	// predictable branch.
	Fault *fault.Injector
	// Ring is the rank's span ring on the flush and blocking-wait paths
	// (nil unless tracing is on).
	Ring *obs.Ring
	// Lander, when set, is offered every long frame for handler LandOn
	// whose sender's earlier frames have all been dispatched (the
	// per-sender order rule); it places the payload at its destination.
	LandOn uint16
	Lander Lander
	// PeerDown, when set, makes peer loss survivable: a lost peer retires
	// only its own connection, PeerDown runs on the dispatch goroutine
	// after every frame that peer had delivered, and later sends to it
	// return a PeerDownError. Without it a lost peer tears the whole
	// endpoint down.
	PeerDown func(peer int, cause error)
	// Tick, when set, runs on the dispatch goroutine roughly every
	// TickEvery, whether the rank is polling or blocked in WaitFor — what
	// lets heartbeat and deadline machinery progress while the rank sits
	// in a blocking wait. One one-shot timer marks it due and wakes the
	// rank like any other wake, so a blocked wait arms nothing of its
	// own; the dispatch goroutine re-arms the timer after running the
	// tick, so a rank busy computing has at most one firing outstanding
	// however long it stays away.
	TickEvery time.Duration
	Tick      func()
}

// runDueTick fires the tick if the timer marked it due and arms the
// timer for the next one. Dispatch goroutine only.
func (ep *TCPEndpoint) runDueTick() {
	if !ep.tickDue.Load() {
		return
	}
	ep.tickDue.Store(false)
	ep.opts.Tick()
	select {
	case <-ep.done:
		// Closed: the tick stops with the endpoint.
	default:
		ep.ticker.Reset(ep.opts.TickEvery)
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

// peerLost routes a dead peer connection — survivable endpoints retire
// just that peer, legacy endpoints tear down whole — and returns the
// error a send to it reports. Safe from any goroutine.
func (ep *TCPEndpoint) peerLost(peer int32, cause error) error {
	if ep.opts.PeerDown == nil {
		ep.fail(cause)
		return cause
	}
	ep.markPeerDown(peer, cause)
	return ep.peerDownErr(int(peer))
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
		// Only a survivable endpoint synthesizes one.
		ep.failMu.Lock()
		cause := ep.downCause[m.From]
		ep.failMu.Unlock()
		ep.opts.PeerDown(int(m.From), cause)
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
// addrs is indexed by rank. The endpoint runs with zero Options.
func (ep *TCPEndpoint) Connect(addrs []string) error {
	return ep.ConnectBy(addrs, time.Time{}, Options{})
}

// ConnectBy is Connect bounded by deadline (zero: unbounded) — a peer
// that died before dialing fails it, naming every rank that never did —
// and run with opts, which it fixes before the readers and the tick
// start. Call it once.
func (ep *TCPEndpoint) ConnectBy(addrs []string, deadline time.Time, opts Options) error {
	ep.opts = opts
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
	if opts.Tick != nil {
		ep.mu.Lock()
		ep.ticker = time.AfterFunc(opts.TickEvery, func() {
			ep.tickDue.Store(true)
			ep.Wake()
		})
		ep.mu.Unlock()
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

// Poll dispatches queued messages to their handlers without blocking and
// reports how many ran. Buffered outgoing frames (including replies the
// handlers just wrote) are flushed before returning. A Poll that finds
// nothing to dispatch tells the rank's read-side affinity that the rank
// polls for its messages rather than parks on a peer (pollMissed).
func (ep *TCPEndpoint) Poll() int { return ep.poll(true) }

// PollBeforePark is Poll for the poll phase of a wait that parks in
// WaitFor once its polls are spent: its empty polls cast no vote, so a
// read side the rank took in its parks stays with it across the polls
// that precede the next. Any other loop of polls calls Poll.
func (ep *TCPEndpoint) PollBeforePark() int { return ep.poll(false) }

func (ep *TCPEndpoint) poll(vote bool) int {
	n := 0
	for {
		select {
		case m := <-ep.inbox:
			ep.dispatch(m)
			n++
		default:
			if n == 0 && vote {
				ep.pollMissed()
			}
			ep.Flush()
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
	if !pred() && ep.opts.Ring != nil {
		ep.opts.Ring.Begin(obs.KNetWait, -1, 0)
		defer ep.opts.Ring.End(obs.KNetWait)
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
		ep.Flush()
		m := <-ep.inbox
		ep.woke = true
		ep.waitDispatch(m)
	}
	ep.Flush()
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
