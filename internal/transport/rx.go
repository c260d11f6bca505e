package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"upcxx/internal/frames"
	"upcxx/internal/pad"
)

// The receive side of a connection has one owner at a time: the peer's
// reader goroutine, which parses frames into the inbox, or the rank,
// which in WaitFor reads its affinity peer's socket itself and
// dispatches each frame as it parses it — so the frame a blocked rank
// waits for wakes the rank, not a goroutine that then wakes the rank
// (DESIGN.md, "The waiting rank reads its peer's socket"). Ownership
// moves only in whole handovers through frameReader.own:
//
//	rxReader  → rxYield   the rank asks (WaitFor, about to block, owns nothing there)
//	rxYield   → rxRank    the reader grants it, parks, and wakes the rank
//	rxYield   → rxReader  the rank withdraws the request before the grant
//	rxRank    ⇄ rxReading the rank around each read of its own
//	rxRank    → rxReader  handed back: the affinity moves or drops (the
//	                      rank polls, or parks on others), a write may
//	                      block, the rank stayed out of reads for a whole
//	                      watch interval, the stream ended, or the
//	                      endpoint closes
const (
	rxReader int32 = iota
	rxYield
	rxRank
	rxReading
)

// Read-side ownership tuning, set by the sweep in DESIGN.md.
const (
	// affinityVotes is how many parks a frame from one peer must end,
	// with no other peer's between, before the rank moves its affinity —
	// and the read side it owns — to that peer, and how many in a row
	// not ended by the affinity peer drop it (vote).
	affinityVotes = 8
	// handbackSpan is how long a rank that owns a read side may make no
	// read of it — computing, or blocked in a write — before the parked
	// reader goroutine takes the side back: the watch's first look
	// comes handbackSpan after the grant. A read side handed back is
	// asked for again at the rank's next park.
	handbackSpan = 4 * time.Millisecond
	// handbackSpanMax caps the watch's interval, which doubles at each
	// look that finds the rank still reading: a rank that keeps its side
	// through a long exchange wakes the watch once a second, not every
	// handbackSpan — each look starts a goroutine, and that wakes an
	// idle thread of the scheduler in the middle of the exchange.
	handbackSpanMax = time.Second
	// streamShips is how many writes to a peer, with no read of it in
	// between, make the rank a streaming writer that hands the peer's
	// read side back before the next (TCPEndpoint.ship).
	streamShips = 4
)

// aLongTimeAgo is the read deadline that interrupts a read in progress.
// SetReadDeadline fails only on a closed connection, whose reads have
// ended anyway, so its error is dropped throughout.
var aLongTimeAgo = time.Unix(1, 0)

// errStreamEnd ends a read side without a peer loss: the peer said
// goodbye, or this endpoint is closing.
var errStreamEnd = errors.New("transport: stream ended")

func isTimeout(err error) bool { return err != nil && errors.Is(err, os.ErrDeadlineExceeded) }

// rxStage is how far the frame in progress has come.
type rxStage uint8

const (
	stageHeader rxStage = iota // at a frame boundary
	stagePrefix                // header parsed; the site awaits pre bytes of payload to decide
	stageLand                  // claimed: the payload's remainder is read into dst
	stagePooled                // the payload is read into dst, a pooled frame
)

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
// Every plain field is its owner's (see own). A read that a deadline
// interrupts leaves the frame in progress here, so whichever side owns
// the connection next goes on from the byte where it stopped; the
// atomics may be read from any goroutine (Counters, the span watch).
type frameReader struct {
	_         pad.Line
	buf       [rxBufLen]byte
	r, w      int         // buf[r:w] is received and not yet parsed
	site      landingSite // nil: every payload takes the pooled path
	delivered int64       // frames handed on for dispatch, by either owner

	// The frame in progress once its header is parsed: its header, its
	// payload length n, the prefix the site asked for, and the buffer
	// the payload's remainder is read into (got bytes of it are in).
	cur   Message
	n     int
	pre   int
	stage rxStage
	dst   []byte
	got   int

	c      net.Conn
	rank   *rankReader // c as the rank reads it; nil: the rank never takes the side
	sawBye bool        // the peer announced a clean close
	stale  bool        // a deadline ended the last read: clear it before the next

	own    atomic.Int32  // rxReader, rxYield, rxRank or rxReading
	resume chan struct{} // wakes the parked reader goroutine after a hand-back
	span   *time.Timer   // the watch that hands the side back (handbackSpan)
	every  atomic.Int64  // the watch's interval, ns: handbackSpan doubling to handbackSpanMax
	seen   atomic.Int64  // reads at the watch's last look
	// shipped counts writes to the peer since the rank's last read of
	// it while the rank owns the side (TCPEndpoint.ship).
	shipped atomic.Int32

	reads, frames, landed, direct, handovers atomic.Int64
	_                                        pad.Line
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

// Lander (Options.Lander) places the payload of a long frame at its
// destination, fixed for the endpoint's life when it connects: it runs
// on whichever goroutine owns the connection's read side (its reader,
// or the rank reading for itself) with the payload's first LanderPrefix
// bytes and head — the part of the remaining rest bytes that arrived
// with the header. It returns the rest-byte window the payload goes to,
// with head already copied into its start, or nil to decline (the frame
// then takes the pooled path, and its handler sees the whole payload).
// The window is filled before the frame — with Landed set and no
// Payload — reaches the handler.
type Lander func(prefix, head []byte, rest int) []byte

// rxLanding is the endpoint's landing site for one peer's reader: the
// endpoint's lander, under the per-sender order rule, and the one reply
// landing a blocked requester may hold.
type rxLanding struct {
	ep        *TCPEndpoint
	peer      int32
	placing   Lander       // the lander whose claim is in progress; read-side owner's
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
	if o := &s.ep.opts; o.Lander != nil && o.LandOn == h {
		if delivered != s.ep.dispatched[s.peer].Load() {
			s.fallbacks.Add(1)
			return -1
		}
		s.placing = o.Lander
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
// nothing and reports false. If the reply is being read into the
// landing, DisarmLanding waits until it is done — which a closed or
// severed connection ends — so dst is never written after it returns.
// A read the rank itself left half done (its wait ended mid-frame) is
// handed to the reader goroutine to finish first.
func (ep *TCPEndpoint) DisarmLanding(peer int, h uint16, arg uint64) bool {
	s := ep.sites[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &s.reply
	if !r.held || r.h != h || r.arg != arg {
		return false
	}
	if r.busy {
		ep.handBack(ep.rxs[peer])
	}
	for r.busy {
		s.ended.Wait()
	}
	landed := r.landed
	*r = replySlot{}
	return landed
}

// fill reads from src into p until at least min bytes have arrived,
// counting each Read that brought bytes or ended the stream. An EOF
// before min is io.ErrUnexpectedEOF when it cuts a frame (partial is
// true or some bytes arrived) and a bare io.EOF at a frame boundary; a
// deadline's interruption returns what arrived before it.
func (rx *frameReader) fill(src io.Reader, p []byte, min int, partial bool) (int, error) {
	n := 0
	for n < min {
		k, err := src.Read(p[n:])
		if k > 0 || !isTimeout(err) {
			rx.reads.Add(1)
		}
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
// buffer holds less than the frame needs. A deadline's interruption
// keeps the frame in progress for the next call, whoever makes it; any
// other error drops it.
func (rx *frameReader) next(src io.Reader) (Message, error) {
	m, err := rx.advance(src)
	if err != nil && !isTimeout(err) {
		rx.drop()
	}
	return m, err
}

func (rx *frameReader) advance(src io.Reader) (Message, error) {
	if rx.stage == stageHeader {
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
		rx.cur, rx.n, rx.stage = m, n, stagePooled
		if n > LongPayload && rx.site != nil {
			if rx.pre = rx.site.prefix(m.Handler, rx.delivered); rx.pre >= 0 {
				rx.stage = stagePrefix
			}
		}
	}
	if rx.stage == stagePrefix {
		if err := rx.land(src); err != nil {
			return Message{}, err
		}
	}
	if rx.stage == stagePooled && rx.dst == nil && rx.n > 0 {
		rx.dst = frames.Get(rx.n)
		rx.got = copy(rx.dst, rx.buf[rx.r:rx.w])
		rx.r += rx.got
	}
	if rx.got < len(rx.dst) {
		k, err := rx.fill(src, rx.dst[rx.got:], len(rx.dst)-rx.got, true)
		rx.got += k
		if err != nil {
			return Message{}, err
		}
	}
	m := rx.cur
	if rx.stage == stageLand {
		rx.site.release(true)
		m.Landed = int32(rx.n)
		rx.landed.Add(1)
	} else if rx.n > 0 {
		m.Payload, m.pooled = rx.dst, true
	}
	rx.stage, rx.dst, rx.got = stageHeader, nil, 0
	rx.frames.Add(1)
	return m, nil
}

// land offers the long frame whose header advance has just consumed to
// the site, once the prefix it asked for is in the buffer, and on a
// claim points the rest of the read at the destination the site names.
// A decline leaves the payload — prefix included, however much of it a
// Read had to bring in — unconsumed for the pooled path.
func (rx *frameReader) land(src io.Reader) error {
	if have := rx.w - rx.r; have < rx.pre {
		copy(rx.buf[:], rx.buf[rx.r:rx.w])
		rx.r, rx.w = 0, have
		k, err := rx.fill(src, rx.buf[have:], rx.pre-have, true)
		rx.w += k
		if err != nil {
			return err
		}
	}
	at := rx.r + rx.pre
	head := rx.buf[at:min(rx.w, rx.r+rx.n)]
	dst := rx.site.claim(rx.cur.Handler, rx.cur.Arg, rx.buf[rx.r:at], head, rx.n-rx.pre)
	if dst == nil {
		rx.stage = stagePooled
		return nil
	}
	rx.r = at + len(head)
	rx.stage, rx.dst, rx.got = stageLand, dst, len(head)
	return nil
}

// drop abandons the frame in progress: a claim ends unlanded, a pooled
// payload goes back to the pool.
func (rx *frameReader) drop() {
	switch {
	case rx.stage == stageLand:
		rx.site.release(false)
	case rx.dst != nil:
		frames.Put(rx.dst)
	}
	rx.stage, rx.dst, rx.got = stageHeader, nil, 0
}

// recv is the one parse both owners of peer's read side run: the next
// frame for dispatch read from src (rx.c for the reader goroutine,
// rx.rank for the rank), stamped with its sender (what the order rule's
// dispatched count is kept by). An EOF inside a frame is
// io.ErrUnexpectedEOF and, like any other read error, peer loss — the
// returned cause — unless the peer said bye first or this side is
// closing (errStreamEnd). A deadline's interruption comes back as is.
func (ep *TCPEndpoint) recv(peer int32, rx *frameReader, src io.Reader) (Message, error) {
	for {
		m, err := rx.next(src)
		switch {
		case err == nil && m.Handler < wakeHandler:
			m.From = peer
			return m, nil
		case err == nil && m.Handler == byeHandler:
			rx.sawBye = true
			continue
		case err == nil:
			// hello belongs to Connect; peer-down and wake only this
			// endpoint may synthesize. From the wire they are a framing
			// error, like an over-limit length.
			if m.pooled {
				frames.Put(m.Payload)
			}
			return Message{}, fmt.Errorf("transport: rank %d: rank %d sent a frame with reserved handler id %#x",
				ep.rank, peer, m.Handler)
		case isTimeout(err):
			rx.stale = true
			return Message{}, err
		case rx.sawBye:
			return Message{}, errStreamEnd
		}
		select {
		case <-ep.done: // deliberate Close on our side
			return Message{}, errStreamEnd
		default:
		}
		return Message{}, fmt.Errorf("transport: rank %d lost connection to rank %d: %w", ep.rank, peer, err)
	}
}

// readLoop is peer's reader goroutine: while it owns the read side,
// every frame recv parses goes to the inbox, in order; asked for the
// side, it yields it to the rank and parks until it is handed back.
func (ep *TCPEndpoint) readLoop(peer int32, rx *frameReader) {
	defer ep.wg.Done()
	for {
		if rx.stale {
			// Clear before looking at own: a request made after this
			// look still interrupts the read below.
			_ = rx.c.SetReadDeadline(time.Time{})
			rx.stale = false
		}
		if rx.own.Load() == rxYield {
			if !ep.yield(rx) {
				return
			}
			continue
		}
		m, err := ep.recv(peer, rx, rx.c)
		switch {
		case err == nil:
		case isTimeout(err):
			continue
		case err == errStreamEnd:
			return
		default:
			ep.peerLost(peer, err)
			return
		}
		if !ep.deliver(m) {
			return
		}
		rx.delivered++
	}
}

// yield grants the rank's request for the read side — every frame
// delivered before it is already in the inbox, and the frame in
// progress, if any, stays in rx for the rank to go on with — wakes the
// rank, and parks until the side is handed back, or asked for again
// right after (true), or the endpoint closes (false). A request
// withdrawn before the grant leaves the side with the reader.
func (ep *TCPEndpoint) yield(rx *frameReader) bool {
	if !rx.own.CompareAndSwap(rxYield, rxRank) {
		return true
	}
	rx.handovers.Add(1)
	ep.Wake()
	rx.seen.Store(rx.reads.Load())
	rx.every.Store(int64(handbackSpan))
	rx.span.Reset(handbackSpan)
	for o := rx.own.Load(); o == rxRank || o == rxReading; o = rx.own.Load() {
		select {
		case <-rx.resume:
		case <-ep.done:
			// Take the side back if the rank is not in a read (which
			// the closed connection ends), to end a claim in progress.
			if o := rx.own.Load(); o == rxReader || o == rxYield || rx.own.CompareAndSwap(rxRank, rxReader) {
				rx.drop()
			}
			return false
		}
	}
	return true
}

// spanElapsed is the parked reader's watch, run by rx.span: a rank that
// owns the read side and has made no read of it for a whole interval is
// computing or blocked in a write, and the side goes back to
// the reader goroutine, so nothing the peer sends waits on the rank's
// next park. It re-arms while the rank keeps reading or sits in a read,
// at twice the interval, up to handbackSpanMax; the next grant starts
// it again at handbackSpan.
func (ep *TCPEndpoint) spanElapsed(rx *frameReader) {
	if o := rx.own.Load(); o == rxReader || o == rxYield {
		return
	}
	select {
	case <-ep.done:
		return
	default:
	}
	if r := rx.reads.Load(); r != rx.seen.Swap(r) || !ep.handBack(rx) {
		d := min(max(2*time.Duration(rx.every.Load()), handbackSpan), handbackSpanMax)
		rx.every.Store(int64(d))
		rx.span.Reset(d)
	}
}

// handBack returns rx's read side to its reader goroutine (or withdraws
// a request the reader has not granted yet) and reports whether it did;
// a side the rank is reading right now stays. Safe from any goroutine.
func (ep *TCPEndpoint) handBack(rx *frameReader) bool {
	if rx.own.CompareAndSwap(rxYield, rxReader) {
		return true
	}
	if !rx.own.CompareAndSwap(rxRank, rxReader) {
		return false
	}
	rx.handovers.Add(1)
	select {
	case rx.resume <- struct{}{}:
	default:
	}
	return true
}

// readOwned is the rank's side of the handover, run by WaitFor with an
// empty inbox. When the rank owns its affinity peer's read side it
// reads that socket (rankReader: flushing before it blocks) — any Wake and any frame delivered to
// the inbox meanwhile interrupt it through the read deadline — and
// dispatches the frame it parses, or routes the end of the stream; it
// reports false when the rank must block on the inbox instead, having
// asked for the side if the reader still holds it.
func (ep *TCPEndpoint) readOwned() bool {
	p := ep.aff
	if p < 0 {
		return false
	}
	rx := ep.rxs[p]
	if rx.rank == nil {
		return false
	}
	if !rx.own.CompareAndSwap(rxRank, rxReading) {
		if rx.own.CompareAndSwap(rxReader, rxYield) {
			_ = rx.c.SetReadDeadline(aLongTimeAgo)
		}
		return false
	}
	rx.shipped.Store(0)
	if rx.stale {
		_ = rx.c.SetReadDeadline(time.Time{})
		rx.stale = false
	}
	// Publish the read before the last look at the inbox (the Dekker
	// order interrupt relies on): whatever is delivered from here on
	// finds direct set and ends the read.
	ep.direct.Store(p)
	var m Message
	var err error
	select {
	case m = <-ep.inbox:
		ep.direct.Store(-1)
		rx.own.Store(rxRank)
		ep.dispatch(m)
		return true
	default:
		if m, err = ep.recv(p, rx, rx.rank); err == nil {
			rx.delivered++ // before the side can go back to the reader
		}
	}
	ep.direct.Store(-1)
	rx.own.Store(rxRank)
	switch {
	case err == nil:
		rx.direct.Add(1)
		ep.vote(p)
		ep.dispatch(m)
	case isTimeout(err):
		ep.woke = true
	default:
		if err != errStreamEnd {
			// A loss the rank reads itself is dispatched here, after
			// every frame the peer sent, not put in the inbox it would
			// block on.
			if ep.opts.PeerDown == nil {
				ep.fail(err)
			} else if ep.retire(p, err) {
				ep.dispatch(Message{From: p, To: ep.rank, Handler: peerDownHandler})
			}
		}
		ep.setAffinity(-1) // hands the side back: its reader finds the end too, and exits
	}
	return true
}

// rankReader is the rank's Read of a socket it owns: one read, and only
// when that would block, WaitFor's flush before the park — the moment
// it flushes before blocking on its inbox, so the replies to frames
// already in the socket leave together, as they do for frames
// dispatched from the inbox. It honours the read deadline interrupt
// sets, as a Read of the connection does.
type rankReader struct {
	ep     *TCPEndpoint
	rc     syscall.RawConn
	fn     func(fd uintptr) bool // built once: a Read allocates nothing
	p      []byte
	n      int
	err    error
	failed []shipFailure // routed once the read is over: routing may close the socket
}

func (ep *TCPEndpoint) newRankReader(c net.Conn) *rankReader {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	r := &rankReader{ep: ep, rc: rc}
	r.fn = func(fd uintptr) bool {
		for {
			r.n, r.err = syscall.Read(int(fd), r.p)
			if r.err != syscall.EINTR {
				break
			}
		}
		if r.err == syscall.EAGAIN {
			r.failed = append(r.failed, ep.shipAll()...)
			return false // park until the socket is readable
		}
		return true
	}
	return r
}

func (r *rankReader) Read(p []byte) (int, error) {
	r.p = p
	err := r.rc.Read(r.fn)
	r.p = nil
	if f := r.failed; f != nil {
		r.failed = nil
		r.ep.routeFailures(f)
	}
	switch {
	case err != nil:
		return 0, err
	case r.err != nil:
		return 0, r.err
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}

// interrupt ends the rank's read of its own, if it is in one, after a
// Wake or a delivery has published what the rank must look at.
func (ep *TCPEndpoint) interrupt() {
	if p := ep.direct.Load(); p >= 0 {
		_ = ep.rxs[p].c.SetReadDeadline(aLongTimeAgo)
	}
}

// vote records what ended a park: a frame from peer, or (peer -1) a
// wake or a message of the rank's own, which votes for nobody.
// affinityVotes parks ended by one peer with no other peer's between
// move the rank's affinity — and the read side it takes — to that
// peer; as many parks in a row not ended by the affinity peer drop it,
// so a rank whose parks no one peer ends (a gateway answered by many
// ranks, a rank woken mostly by bells) keeps to its inbox. Rank
// goroutine only.
func (ep *TCPEndpoint) vote(peer int32) {
	if peer >= 0 && peer == ep.aff {
		ep.votes, ep.misses = 0, 0
		return
	}
	ep.misses++
	if peer >= 0 {
		if peer != ep.cand {
			ep.cand, ep.votes = peer, 0
		}
		if ep.votes++; ep.votes >= affinityVotes {
			ep.setAffinity(peer)
			return
		}
	}
	if ep.aff >= 0 && ep.misses >= affinityVotes {
		ep.setAffinity(-1)
	}
}

// pollMissed is an empty Poll's vote: a rank that only polls for its
// messages — a loop around Advance — finds them in the inbox its
// readers fill while it polls, and would find nothing there from a
// peer whose read side it held. So an empty Poll counts as a park the
// affinity peer did not end, and ends any candidate's run: such a rank
// gives its side back within affinityVotes polls. The polls a wait
// makes before it parks (PollBeforePark, the hier conduit's poll phase)
// do not vote: the park that follows them reads the side, so a
// hierarchical leader parked on the other leaders' frames takes and
// keeps their read sides like any rank that parks. Rank goroutine only.
func (ep *TCPEndpoint) pollMissed() {
	ep.cand, ep.votes = -1, 0
	if ep.aff >= 0 {
		if ep.misses++; ep.misses >= affinityVotes {
			ep.setAffinity(-1)
		}
	}
}

// setAffinity moves the rank's affinity to peer (-1: none), handing
// back the read side of the peer it leaves.
func (ep *TCPEndpoint) setAffinity(peer int32) {
	if ep.aff >= 0 {
		ep.handBack(ep.rxs[ep.aff])
	}
	ep.aff, ep.cand, ep.votes, ep.misses = peer, -1, 0, 0
}
