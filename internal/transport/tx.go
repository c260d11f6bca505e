package transport

import (
	"fmt"
	"net"
	"time"

	"upcxx/internal/fault"
	"upcxx/internal/frames"
	"upcxx/internal/obs"
)

// ---- The send path: per-peer vectored queues, shipped one writev per flush ----

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
	if act, fired := ep.opts.Fault.OnSend(int(m.To), m.Handler); fired {
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
	return ep.peerLost(peer, fmt.Errorf("transport: rank %d flushing to rank %d: %w", ep.rank, peer, err))
}

// severFrame executes an injected mid-frame sever: it writes only the
// frame header (announcing a payload that never follows) and routes
// through the normal peer-loss path, which closes the connection: the
// peer's next read fails with an unexpected EOF partway through a frame
// — the worst-shaped cut a real link failure produces — and the caller
// gets the typed peer-down error.
func (ep *TCPEndpoint) severFrame(m Message, n int) error {
	ep.mu.Lock()
	if q := ep.qs[m.To]; q != nil {
		var hdr [frameHdrLen]byte
		putHeader(hdr[:], m, n+1)
		q.slabAppend(hdr[:])
		_ = ep.ship(int(m.To))
	}
	ep.mu.Unlock()
	return ep.peerLost(m.To, fmt.Errorf("transport: fault injection severed rank %d's connection to rank %d mid-frame",
		ep.rank, m.To))
}

// Flush ships every queued frame now, one vectored write per peer.
// Callers that send and then neither poll nor wait (a collective root
// answering its children after its own wait completed) must flush, or
// the frames sit queued while the peers sleep. A failed write means
// that peer's connection is dead: the failure routes into the
// peer-loss path (peer-down retirement in survivable mode,
// whole-endpoint teardown otherwise) after ep.mu is released — so a
// dead peer surfaces at flush time instead of waiting for the reader
// goroutine to notice, and a flush error is never silently swallowed.
func (ep *TCPEndpoint) Flush() { ep.routeFailures(ep.shipAll()) }

// shipFailure is a peer whose vectored write failed, and why.
type shipFailure struct {
	peer int32
	err  error
}

// shipAll is Flush's writing half: it returns the failures for the
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
	if buffered > 0 && ep.opts.Ring != nil {
		ep.opts.Ring.Instant(obs.KNetFlush, -1, uint32(buffered), 0)
	}
	return failed
}

// routeFailures routes failed writes into the peer-loss path.
func (ep *TCPEndpoint) routeFailures(failed []shipFailure) {
	for _, f := range failed {
		_ = ep.flushFailed(f.peer, f.err)
	}
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
