package gasnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"upcxx/internal/frames"
	"upcxx/internal/obs"
	"upcxx/internal/pad"
	"upcxx/internal/transport"
)

// Wire protocol handler indices. All ranks register the same table at
// the same indices, as with GASNet handler registration. Every request
// carries a caller-chosen token in the frame's Arg field; the reply
// echoes it, so a rank blocked on one request keeps serving its peers'
// requests while it waits.
const (
	hReply   uint16 = 1  // Arg=token, payload = reply bytes
	hGet     uint16 = 2  // Arg=token, payload = [off u64][len u64]
	hPut     uint16 = 3  // Arg=token, payload = [off u64][data]
	hXor     uint16 = 4  // Arg=token, payload = [off u64][val u64]
	hAlloc   uint16 = 5  // Arg=token, payload = [size u64]; reply 0 = fail
	hFree    uint16 = 6  // Arg=token, payload = [off u64]
	hLockAcq uint16 = 7  // Arg=token, payload = [id u64][try u8]
	hLockRel uint16 = 8  // Arg=token, payload = [id u64]
	hBatch   uint16 = 9  // Arg=token, payload = aggregation batch (internal/agg encoding)
	hPing    uint16 = 10 // Arg=token, no payload; heartbeat probe, replied immediately

	// Team collectives (the world is one more team): contributions
	// rendezvous with the team's root (members[0]) under a caller-chosen
	// key, so independent teams may gather concurrently.
	hTeamGather uint16 = 11 // Arg=key, payload = fragment of a member's contribution
	hTeamResult uint16 = 12 // Arg=key, payload = fragment of the encoded table

	// 13-15 belong to HierConduit (see hier.go, which also names hLast).
)

// handlerNames names each wire handler for the per-handler traffic
// counters (Counters keys are derived from these). It is sized by
// hLast, so an id added above hLast does not compile here, and
// TestWireHandlerTable fails on one added below it without a name.
var handlerNames = [hLast + 1]string{
	hReply:      "reply",
	hGet:        "get",
	hPut:        "put",
	hXor:        "xor",
	hAlloc:      "alloc",
	hFree:       "free",
	hLockAcq:    "lockacq",
	hLockRel:    "lockrel",
	hBatch:      "batch",
	hPing:       "ping",
	hTeamGather: "teamgather",
	hTeamResult: "teamresult",
	hHierGather: "hiergather",
	hHierTable:  "hiertable",
	hHierBar:    "hierbar",
}

// WireConduit is the multi-process Conduit: each rank is one OS process
// owning only its own segment, and every remote operation of the
// Conduit vocabulary travels as a framed active message with encoded
// arguments over internal/transport. Collectives rendezvous through
// the team's root (contributions in, the gathered table back out).
// Time is wall-clock; the virtual-time model does not extend across
// address spaces.
//
// A WireConduit must be driven by a single goroutine — its rank's SPMD
// goroutine — which is where all handlers execute (inside Poll or a
// blocking call's wait loop), so the conduit's state needs no locking.
type WireConduit struct {
	tep *transport.TCPEndpoint
	mem Memory

	// wait is the blocking-wait primitive every parked operation uses
	// (requests, collectives, lock grants). It defaults to the
	// transport's inbox wait; a composing conduit (HierConduit)
	// replaces it with a loop that also services its other plane, so a
	// rank blocked inside a wire operation still serves co-located
	// peers' shared-memory requests.
	wait func(pred func() bool) error

	// nextToken is written for every request and batch; the bracket
	// keeps it off the lines of the read-only fields around it (Wake
	// reads tep from foreign goroutines) and of neighbouring objects.
	_         pad.Line
	nextToken uint64
	// reqHdr holds a request's argument words while they are sent; 16
	// bytes are inlined into the transport's slab at the call, so one
	// buffer serves every request without escaping.
	reqHdr [16]byte
	_      pad.Line

	// acks maps every outstanding request token to its record (every
	// chunk of a transfer points at the transfer's one record); reqFree
	// recycles records (see newReq).
	acks    map[uint64]*wireReq
	reqFree []*wireReq
	// void marks tokens whose requester gave up (rank death, deadline
	// expiry, an earlier chunk's failure): a late reply for one is
	// dropped.
	void map[uint64]struct{}

	// Resilient mode (EnableResilience): nil slices mean legacy
	// behavior everywhere.
	resilient   bool
	hb          ResilienceConfig
	onRankDeath func(rank int)
	dead        []bool
	deadCause   []error
	heard       []bool      // a frame arrived from the peer since the last tick
	lastHeard   []time.Time // the tick that last found heard set, per peer
	pingOut     []bool      // heartbeat probe outstanding per peer
	timers      []wireTimer // After callbacks, swept on tick
	lostBatches int64       // batches completed-as-lost to dead ranks

	// The batch plane's hooks, installed by the layer above (core) via
	// SetBatchHandler: batchApply decodes and applies one batch or reply,
	// batchReply hands over what rides a batch's ack, and batchAfter
	// runs once the ack is queued or an ack delivered.
	batchApply func(from int, payload []byte) error
	batchReply func(to int) []byte
	batchAfter func()

	locks      map[uint64]*wireLockState
	nextLockID uint64

	// Team-collective rendezvous state, keyed by the caller-chosen
	// collective key (teams gather concurrently).
	teamParts       map[uint64]map[int32][]byte // root: contributions by world rank
	teamFrags       map[fragKey]*fragBuf        // root: partial contributions
	teamResult      map[uint64][]byte           // member: encoded table by key
	teamResultFrags map[fragKey]*fragBuf        // member: partial tables

	// Per-handler traffic counters, indexed by handler. All sends and
	// all handler dispatches happen on the rank's SPMD goroutine, but
	// the live debug plane may pull Counters from another goroutine, so
	// the maps are fully populated at construction (never grown) and
	// the stats themselves are atomics.
	tx, rx map[uint16]*wireStat

	// ring is this rank's span ring (nil unless tracing is enabled);
	// installed by the layer above via SetObs.
	ring *obs.Ring
}

// wireStat counts one direction of one handler's traffic.
type wireStat struct {
	frames atomic.Int64
	bytes  atomic.Int64 // payload bytes (the fixed 26-byte frame header is not included)
}

// wireReq is one tokened request in flight — every chunk of a get or
// put, a control request (xor, alloc, free, lock), a heartbeat ping or
// an aggregation batch — and the record each of its reply tokens points
// at. Its n frames carry tokens tok..tok+n-1. Records are pooled
// (newReq), so no request allocates a record or a closure.
type wireReq struct {
	h        uint16    // the request's handler: what its replies mean
	to       int       // target rank, so rank death can fail matching tokens
	deadline time.Time // zero: no reply deadline
	tok      uint64
	n        int // frames sent
	left     int // of them, replies outstanding
	// off and p are a get's destination or a put's source (chunk i
	// covers p[i*maxChunk:]; nil for any other request); land is the
	// token whose reply may land in p, 0 once disarmed.
	off  uint64
	p    []byte
	land uint64
	rep  []byte // a control request's reply, copied (capacity kept)
	done bool
	err  error
	// onDone is a transfer's completion callback; nil when the issuer
	// waits (await). onAck is a batch's: on target death it completes as
	// success ("the batch is lost, not pending") so events and Finish
	// scopes drain — replication above the batch plane is what preserves
	// the data.
	onDone func(err error)
	onAck  func()
	isDone func() bool // bound once per record: await's predicate
}

// wireTimer is one After callback.
type wireTimer struct {
	at time.Time
	fn func()
}

// fragKey identifies one in-flight fragmented collective payload.
type fragKey struct {
	key  uint64
	from int32
}

// fragBuf reassembles a fragmented payload: buf holds the bytes received
// so far, total how many the first fragment announced.
type fragBuf struct {
	buf   []byte
	total uint64
}

type wireLockState struct {
	held  bool
	queue []wireLockWaiter
}

type wireLockWaiter struct {
	rank  int32
	token uint64
}

// NewWireConduit builds the conduit over a connected transport endpoint,
// serving remote requests against mem (this rank's segment). The
// endpoint's handler table must be unused; NewWireConduit owns it.
func NewWireConduit(tep *transport.TCPEndpoint, mem Memory) *WireConduit {
	c := &WireConduit{
		tep:             tep,
		mem:             mem,
		acks:            make(map[uint64]*wireReq),
		void:            make(map[uint64]struct{}),
		locks:           make(map[uint64]*wireLockState),
		teamParts:       make(map[uint64]map[int32][]byte),
		teamFrags:       make(map[fragKey]*fragBuf),
		teamResult:      make(map[uint64][]byte),
		teamResultFrags: make(map[fragKey]*fragBuf),
		tx:              make(map[uint16]*wireStat),
		rx:              make(map[uint16]*wireStat),
	}
	// Populate both counter maps up front for every handler the wire
	// protocol can carry (1..hLast): the debug plane reads them from
	// another goroutine, so the maps must never grow after this.
	for h := hReply; h <= hLast; h++ {
		c.tx[h] = &wireStat{}
		c.rx[h] = &wireStat{}
	}
	c.wait = c.tep.WaitFor
	c.SetBatchHandler(func(int, []byte) error {
		return fmt.Errorf("rank %d has no batch handler installed", c.Rank())
	}, func(int) []byte { return nil }, func() {})
	c.register(hReply, c.onReply)
	c.register(hGet, c.onGet)
	c.register(hPut, c.onPut)
	c.register(hXor, c.onXor)
	c.register(hAlloc, c.onAlloc)
	c.register(hFree, c.onFree)
	c.register(hLockAcq, c.onLockAcquire)
	c.register(hLockRel, c.onLockRelease)
	c.register(hBatch, c.onBatch)
	c.register(hPing, c.onPing)
	c.register(hTeamGather, c.onTeamGather)
	c.register(hTeamResult, c.onTeamResult)
	c.tep.SetLander(hPut, c.landPut)
	return c
}

// register installs a handler wrapped with receive-side counting (and,
// in resilient mode, liveness bookkeeping: any frame from a peer is
// proof of life, noted as a flag the next tick folds into lastHeard —
// no clock read per frame).
func (c *WireConduit) register(h uint16, fn transport.Handler) {
	if c.rx[h] == nil {
		panic(fmt.Sprintf("gasnet: wire handler %d registered above hLast (%d): its frames would go uncounted", h, hLast))
	}
	c.tep.Register(h, func(ep *transport.TCPEndpoint, m transport.Message) {
		n := len(m.Payload) + int(m.Landed)
		c.count(c.rx, m.Handler, n)
		c.ring.Instant(obs.KWireRx, m.From, uint32(n), uint64(m.Handler))
		if c.heard != nil {
			c.heard[m.From] = true
		}
		fn(ep, m)
	})
}

func (c *WireConduit) count(dir map[uint16]*wireStat, h uint16, bytes int) {
	s := dir[h] // never nil: register refuses an id without a slot
	s.frames.Add(1)
	s.bytes.Add(int64(bytes))
}

// send is the counted send path every outgoing frame takes. The
// payload is borrowed until the transport's next flush (small payloads
// are copied at the call) — callers that reuse the buffer sooner go
// through sendOwned.
func (c *WireConduit) send(m transport.Message) error { return c.sendLong(m, nil) }

// sendLong is send with data following the payload as the frame's
// second, borrowed part (transport.SendLong).
func (c *WireConduit) sendLong(m transport.Message, data []byte) error {
	n := len(m.Payload) + len(data)
	c.count(c.tx, m.Handler, n)
	c.ring.Instant(obs.KWireTx, m.To, uint32(n), uint64(m.Handler))
	return c.tep.SendLong(m, data)
}

// sendOwned is send with ownership transfer: the payload (typically a
// frames pool buffer) belongs to the transport from the call on and is
// recycled once the frame ships.
func (c *WireConduit) sendOwned(m transport.Message) error {
	c.count(c.tx, m.Handler, len(m.Payload))
	c.ring.Instant(obs.KWireTx, m.To, uint32(len(m.Payload)), uint64(m.Handler))
	return c.tep.SendOwned(m)
}

// SetObs installs the rank's span ring on the conduit's frame paths.
// Call before traffic starts; the ring itself is nil-safe, so a
// conduit without one records nothing.
func (c *WireConduit) SetObs(ring *obs.Ring) {
	c.ring = ring
	c.tep.SetObs(ring)
}

// Counters reports this conduit's wire traffic as named counters:
// aggregate frame and payload-byte totals per direction, plus
// per-handler breakdowns (wire_tx_frames_put, wire_rx_bytes_batch,
// ...), plus the transport's system-call accounting (net_rx_reads,
// net_tx_writevs, ...). The bench harness folds them into its JSON
// artifact so message reductions from the aggregation layer are
// measurable, not anecdotal.
func (c *WireConduit) Counters() map[string]float64 {
	out := make(map[string]float64)
	fold := func(prefix string, dir map[uint16]*wireStat) {
		var frames, bytes int64
		for h, s := range dir {
			f, b := s.frames.Load(), s.bytes.Load()
			if f == 0 && b == 0 {
				continue
			}
			frames += f
			bytes += b
			out[prefix+"_frames_"+handlerNames[h]] = float64(f)
			out[prefix+"_bytes_"+handlerNames[h]] = float64(b)
		}
		out[prefix+"_frames"] = float64(frames)
		out[prefix+"_bytes"] = float64(bytes)
	}
	fold("wire_tx", c.tx)
	fold("wire_rx", c.rx)
	for k, v := range c.tep.Counters() {
		out[k] = v
	}
	return out
}

// Rank returns this conduit's rank.
func (c *WireConduit) Rank() int { return c.tep.Rank() }

// Ranks returns the job size.
func (c *WireConduit) Ranks() int { return c.tep.Ranks() }

// Capabilities: the full extension set — batching, resilience, traffic
// counters and external wakeup. No locality: a flat wire mesh encodes
// no co-location.
func (c *WireConduit) Capabilities() Caps {
	return Caps{Batch: c, Resilient: c, Counters: c, Waker: c}
}

// Wake unblocks a WaitFor on this conduit from a foreign goroutine
// (WakerConduit). It never blocks (TCPEndpoint.Wake), which is what
// lets a co-located rank of this process ring it from inside its own
// Send or Poll.
func (c *WireConduit) Wake() { c.tep.Wake() }

// newReq takes a pooled record for a request of frames frames to `to`
// under handler h and reserves their tokens. A non-zero timeout is a
// reply deadline, which only a resilient conduit's tick sweep enforces;
// a nil onDone means the issuer awaits the record.
func (c *WireConduit) newReq(h uint16, to, frames int, timeout time.Duration, onDone func(error)) *wireReq {
	var x *wireReq
	if n := len(c.reqFree); n > 0 {
		x, c.reqFree = c.reqFree[n-1], c.reqFree[:n-1]
	} else {
		x = new(wireReq)
		x.isDone = func() bool { return x.done }
	}
	x.h, x.to, x.onDone = h, to, onDone
	if timeout > 0 && c.resilient {
		x.deadline = time.Now().Add(timeout)
	}
	x.tok = c.nextToken + 1
	c.nextToken += uint64(frames)
	return x
}

// free returns a record to the pool, dropping every reference it holds
// to callers' memory and callbacks.
func (c *WireConduit) free(x *wireReq) {
	*x = wireReq{rep: x.rep[:0], isDone: x.isDone}
	c.reqFree = append(c.reqFree, x)
}

// post sends x's next frame — payload, then data as its borrowed second
// part — and registers its token. Nothing is dispatched in between, so
// no reply can arrive before the token is registered.
func (c *WireConduit) post(x *wireReq, payload, data []byte) error {
	tok := x.tok + uint64(x.n)
	if err := c.sendLong(transport.Message{To: int32(x.to), Handler: x.h, Arg: tok, Payload: payload}, data); err != nil {
		return err
	}
	c.acks[tok] = x
	x.n++
	x.left++
	return nil
}

// sendFailed unwinds a send error on x's next frame. The frames already
// posted are retired first, so the death sweep a peer-down error starts
// cannot complete x behind this call. With none posted nothing is in
// flight: x is released and the (typed) error returned, and onDone never
// runs. Otherwise x completes with the failure and nil is returned.
func (c *WireConduit) sendFailed(x *wireReq, err error) error {
	c.drop(x)
	if derr := c.noteSendError(x.to, err); derr != nil {
		err = derr
	}
	if x.n == 0 {
		c.free(x)
		return err
	}
	c.complete(x, err)
	return nil
}

// drop retires x's outstanding tokens, so a late reply for one is
// dropped, and disarms its landing — waiting out a read into it — so no
// reader writes x's destination again.
func (c *WireConduit) drop(x *wireReq) {
	for i := 0; x.left > 0 && i < x.n; i++ {
		tok := x.tok + uint64(i)
		if c.acks[tok] == x {
			delete(c.acks, tok)
			c.void[tok] = struct{}{}
			x.left--
		}
	}
	if x.land != 0 {
		c.tep.DisarmLanding(x.to, hReply, x.land)
		x.land = 0
	}
}

// complete ends x once: err is nil after its last reply, or the first
// failure. A batch then runs onAck and the after hook, a ping clears its
// probe (and severs a live peer that let it expire), a transfer runs
// onDone — each releasing x first. An awaited record stays for await.
func (c *WireConduit) complete(x *wireReq, err error) {
	if x.done {
		return
	}
	c.drop(x)
	x.done, x.err = true, err
	switch {
	case x.h == hBatch:
		onAck := x.onAck
		c.free(x)
		if onAck != nil {
			onAck()
		}
		c.batchAfter()
	case x.h == hPing:
		peer := x.to
		c.free(x)
		c.pingOut[peer] = false
		if err != nil && !c.dead[peer] {
			c.tep.SeverPeer(peer, fmt.Errorf("gasnet: rank %d unresponsive: %w", peer, err))
		}
	case x.onDone != nil:
		onDone := x.onDone
		c.free(x)
		onDone(err)
	}
}

// await blocks until x completes, dispatching incoming requests while
// waiting, and releases it. In resilient mode the target's death
// completes x — with a RankDeadError — so a blocked requester never
// hangs on a lost peer. rep is a control request's reply, valid until
// the next request.
func (c *WireConduit) await(x *wireReq) (rep []byte, err error) {
	if err := c.wait(x.isDone); err != nil {
		c.complete(x, err)
	}
	rep, err = x.rep, x.err
	c.free(x)
	return rep, err
}

// request sends one encoded-argument control request and waits for its
// reply (see await).
func (c *WireConduit) request(to int, h uint16, payload []byte) ([]byte, error) {
	if err := c.deadErr(to); err != nil {
		return nil, err
	}
	x := c.newReq(h, to, 1, 0, nil)
	if err := c.post(x, payload, nil); err != nil {
		if err := c.sendFailed(x, err); err != nil {
			return nil, err
		}
	}
	return c.await(x)
}

// isDead reports resilient-mode death state (always false otherwise).
func (c *WireConduit) isDead(rank int) bool {
	return c.dead != nil && c.dead[rank]
}

// deadErr returns the typed error for a dead target, nil otherwise.
func (c *WireConduit) deadErr(rank int) error {
	if c.isDead(rank) {
		return &RankDeadError{Rank: rank, Cause: c.deadCause[rank]}
	}
	return nil
}

// noteSendError folds a transport send failure into the death
// bookkeeping: in resilient mode a peer-down send means the target is
// dead, and the caller should surface that typed cause.
func (c *WireConduit) noteSendError(to int, err error) error {
	if c.resilient && errors.Is(err, transport.ErrPeerDown) {
		c.markDead(to, err)
		return c.deadErr(to)
	}
	return nil
}

// reply answers a request message with the given bytes.
func (c *WireConduit) reply(m transport.Message, payload []byte) {
	// A reply failure means the peer is gone; the job is aborting.
	_ = c.send(transport.Message{To: m.From, Handler: hReply, Arg: m.Arg, Payload: payload})
}

// onReply is the one reply path: a voided token's reply is dropped, any
// other finds its record. A get chunk's bytes have landed in the
// destination or are copied there, a put chunk's reply is empty unless
// refused, a batch's ack may carry a reply to apply, and a control
// reply is copied into the record, so the pooled payload recycles when
// this handler returns. The record completes on its first failure or
// its last reply.
func (c *WireConduit) onReply(_ *transport.TCPEndpoint, m transport.Message) {
	if _, gone := c.void[m.Arg]; gone {
		delete(c.void, m.Arg)
		return
	}
	x := c.acks[m.Arg]
	if x == nil {
		return
	}
	delete(c.acks, m.Arg)
	x.left--
	var err error
	switch {
	case x.h == hBatch:
		// The reply is applied before the batch completes, so whatever
		// the batch's completion releases sees it. A reply that does not
		// apply severs its sender; the batch itself was applied.
		if len(m.Payload) > 0 {
			if aerr := c.batchApply(int(m.From), m.Payload); aerr != nil {
				c.severMalformed(m, aerr)
			}
		}
	case x.p == nil:
		x.rep = append(x.rep[:0], m.Payload...)
	case x.h == hGet:
		err = c.gotChunk(x, m)
	case len(m.Payload) != 0:
		at := int(m.Arg-x.tok) * maxChunk
		err = refused("put", x.to, x.off+uint64(at), min(len(x.p)-at, maxChunk))
	}
	if err != nil || x.left == 0 {
		c.complete(x, err)
	}
}

func (c *WireConduit) onPing(_ *transport.TCPEndpoint, m transport.Message) {
	c.reply(m, nil)
}

func u64(p []byte) uint64       { return binary.LittleEndian.Uint64(p) }
func putU64(p []byte, v uint64) { binary.LittleEndian.PutUint64(p, v) }

// ---- One-sided data plane ----

// maxChunk bounds the data carried by one Get reply or Put request so
// no frame ever exceeds transport.MaxPayload (the put request spends 8
// bytes on the offset); larger transfers are split into chunked
// requests rather than failing — or, worse, hanging the requester on a
// reply the transport refuses to send.
const maxChunk = transport.MaxPayload - 8

// A one-sided request the target cannot serve — a payload too short to
// hold its arguments, a range outside the segment, a misaligned atomic
// — is answered with a failure reply its requester tells from success
// by length alone: empty for get and xor (whose successful replies
// carry the data), one byte for put (whose successful reply is empty).
var putRefused = []byte{0}

// refused is the error a requester returns for a failure reply.
func refused(op string, rank int, off uint64, n int) error {
	return fmt.Errorf("gasnet: rank %d refused a %s of %d bytes at offset %d", rank, op, n, off)
}

// Get copies len(p) bytes from rank's segment at off into p: the
// transfer GetAsync issues, waited on.
func (c *WireConduit) Get(rank int, off uint64, p []byte) error {
	return c.issue(hGet, rank, off, p, 0, nil)
}

// GetAsync is the non-blocking Get (see Conduit.GetAsync).
func (c *WireConduit) GetAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error {
	return c.issue(hGet, rank, off, p, timeout, onDone)
}

// Put copies p into rank's segment at off: the transfer PutAsync
// issues, waited on.
func (c *WireConduit) Put(rank int, off uint64, p []byte) error {
	return c.issue(hPut, rank, off, p, 0, nil)
}

// PutAsync is the non-blocking Put (see Conduit.PutAsync).
func (c *WireConduit) PutAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error {
	return c.issue(hPut, rank, off, p, timeout, onDone)
}

// issue is the data plane's one chunk loop: it sends every chunk of a
// get (h == hGet, into p) or a put (of p) at rank to's offset off, all
// under one record, and with a nil onDone waits for it — the blocking
// form. A get chunk longer than transport.LongPayload arms the peer's
// reply landing on its part of p when the slot is free; every way the
// chunk ends (its reply, the death sweep, a deadline, a send failure)
// disarms it first. A put chunk leaves as its offset followed by the
// caller's bytes, borrowed; a put longer than the transport inlines is
// flushed here, so p is the caller's again on return. A transfer to
// self is a direct memory access. The error contract is GetAsync's:
// non-nil means onDone never runs.
func (c *WireConduit) issue(h uint16, to int, off uint64, p []byte, timeout time.Duration, onDone func(error)) error {
	if to == c.Rank() {
		if h == hGet {
			c.mem.Read(off, p)
		} else {
			c.mem.Write(off, p)
		}
		if onDone != nil {
			onDone(nil)
		}
		return nil
	}
	if err := c.deadErr(to); err != nil {
		return err
	}
	x := c.newReq(h, to, (len(p)+maxChunk-1)/maxChunk, timeout, onDone)
	x.off, x.p = off, p
	var err error
	for at := 0; at < len(p) && err == nil; at += maxChunk {
		chunk := p[at:min(len(p), at+maxChunk)]
		putU64(c.reqHdr[:], off+uint64(at))
		if h == hPut {
			err = c.post(x, c.reqHdr[:8], chunk)
			continue
		}
		putU64(c.reqHdr[8:], uint64(len(chunk)))
		if tok := x.tok + uint64(x.n); x.land == 0 && len(chunk) > transport.LongPayload && c.tep.ArmLanding(to, hReply, tok, chunk) {
			x.land = tok
		}
		err = c.post(x, c.reqHdr[:], nil)
	}
	if h == hPut && len(p) > transport.InlineMax {
		c.tep.Flush()
	}
	if err != nil {
		if err = c.sendFailed(x, err); err != nil {
			return err
		}
	} else if x.left == 0 {
		c.complete(x, nil) // empty
	}
	if onDone == nil {
		_, err = c.await(x)
	}
	return err
}

// gotChunk places one get chunk's reply: landed straight in the
// destination, or copied out of its frame.
func (c *WireConduit) gotChunk(x *wireReq, m transport.Message) error {
	at := int(m.Arg-x.tok) * maxChunk
	dst := x.p[at:min(len(x.p), at+maxChunk)]
	if x.land == m.Arg {
		x.land = 0
		if c.tep.DisarmLanding(x.to, hReply, m.Arg) {
			return nil
		}
	}
	if len(m.Payload) != len(dst) {
		return refused("get", x.to, x.off+uint64(at), len(dst))
	}
	copy(dst, m.Payload)
	return nil
}

// onGet replies with a borrowed view of the segment, so no copy is made
// on this side either. The view is read when the reply ships, in the
// flush that ends this dispatch turn (Poll's, or WaitFor's once its
// inbox is empty or its predicate holds) — not here: handlers the same
// turn dispatches after this one (task bodies, batch applies) may write
// the range first, and the reply then carries their writes. That is
// still a correct get: it has not completed until its reply arrives, so
// its read may take effect at any point before the reply ships, and the
// later handlers run on this goroutine, so the flush sees their writes
// whole. Only an unordered concurrent write — a put landing from
// another peer's reader — can make it a mix, as with RDMA.
func (c *WireConduit) onGet(_ *transport.TCPEndpoint, m transport.Message) {
	var view []byte
	if len(m.Payload) >= 16 {
		if n := u64(m.Payload[8:]); n <= maxChunk {
			view = c.mem.Window(u64(m.Payload), n)
		}
	}
	c.reply(m, view) // nil view: refused
}

// landPut is hPut's lander: a long put's data is read straight into the
// segment window its offset names. The part that arrived with the
// header goes in through Write, under the memory's lock, so a local
// access that held the lock before is ordered before the landing. An
// out-of-range put declines, and onPut refuses it.
func (c *WireConduit) landPut(prefix, head []byte, rest int) []byte {
	off := u64(prefix)
	win := c.mem.Window(off, uint64(rest))
	if win != nil {
		c.mem.Write(off, head)
	}
	return win
}

func (c *WireConduit) onPut(_ *transport.TCPEndpoint, m transport.Message) {
	if m.Landed == 0 {
		if len(m.Payload) < 8 || c.mem.Window(u64(m.Payload), uint64(len(m.Payload)-8)) == nil {
			c.reply(m, putRefused)
			return
		}
		c.mem.Write(u64(m.Payload), m.Payload[8:])
	}
	c.reply(m, nil)
}

// Xor64 performs the remote atomic update and returns the new value.
func (c *WireConduit) Xor64(rank int, off uint64, val uint64) (uint64, error) {
	if rank == c.Rank() {
		return c.mem.Xor64(off, val), nil
	}
	putU64(c.reqHdr[0:], off)
	putU64(c.reqHdr[8:], val)
	rep, err := c.request(rank, hXor, c.reqHdr[:])
	if err != nil {
		return 0, err
	}
	if len(rep) != 8 {
		return 0, refused("xor", rank, off, 8)
	}
	return u64(rep), nil
}

func (c *WireConduit) onXor(_ *transport.TCPEndpoint, m transport.Message) {
	if len(m.Payload) < 16 || u64(m.Payload)%8 != 0 || c.mem.Window(u64(m.Payload), 8) == nil {
		c.reply(m, nil) // refused
		return
	}
	v := c.mem.Xor64(u64(m.Payload[0:]), u64(m.Payload[8:]))
	var rep [8]byte
	putU64(rep[:], v)
	c.reply(m, rep[:])
}

// ---- Aggregation batch plane ----

// SetBatchHandler installs the batch plane's hooks (see
// BatchConduit.SetBatchHandler): all three run on this rank's SPMD
// goroutine, inside Poll or a blocking call's wait loop. An incoming
// hBatch frame is applied, then its hReply ack is queued carrying what
// reply hands over, then after runs — so the flush after makes ships
// the ack and the batches apply generated in one vectored write, ack
// first. An ack that carries a reply is applied with the same apply
// before the batch's onAck. internal/core installs the internal/agg
// decoder, agg.TakeReply and its cut-through flush here.
func (c *WireConduit) SetBatchHandler(apply func(from int, payload []byte) error, reply func(to int) []byte, after func()) {
	c.batchApply, c.batchReply, c.batchAfter = apply, reply, after
}

// SendBatch ships one encoded aggregation batch to rank `to` without
// blocking. Once the target has applied every operation in it, its
// acknowledgement arrives; the reply it may carry is applied, then
// onAck and the after hook run, on this rank's goroutine. This is the
// transport half of the aggregation layer: many small operations
// travel as one frame and are acknowledged by one reply, instead of a
// frame pair each.
// Aggregation batches to a dead rank complete as LOST rather than
// failing: the ack fires (so events and Finish scopes drain) and the
// loss is counted — replication above the batch plane is what
// preserves the data. This is the complete-as-lost semantics the
// replicated DHT's write fan-out relies on.
func (c *WireConduit) SendBatch(to int, payload []byte, onAck func()) error {
	x := c.newReq(hBatch, to, 1, 0, nil)
	x.onAck = onAck
	if c.isDead(to) {
		frames.Put(payload) // ownership arrived with the call; the frame never ships
		c.lostBatches++
		c.complete(x, nil)
		return nil
	}
	// The batch buffer comes from the aggregation encoder's frame pool
	// and is owned by this call: the transport recycles it once the
	// frame ships (or on a failed send).
	err := c.sendOwned(transport.Message{
		To: int32(to), Handler: hBatch, Arg: x.tok, Payload: payload,
	})
	if err != nil {
		if c.noteSendError(to, err) != nil {
			c.lostBatches++
			c.complete(x, nil)
			return nil
		}
		c.free(x)
		return err
	}
	c.acks[x.tok] = x
	x.n, x.left = 1, 1
	// Ship eagerly: the batch is itself the coalescing unit, so parking
	// it in the transport's tx queue until the next progress call would
	// re-batch the already-batched and charge every op a poll-cadence
	// latency — exactly what a size-triggered flush of a 1-op adaptive
	// batch must not pay.
	c.tep.Flush()
	return nil
}

func (c *WireConduit) onBatch(_ *transport.TCPEndpoint, m transport.Message) {
	from := int(m.From)
	if err := c.batchApply(from, m.Payload); err != nil {
		c.severMalformed(m, err)
		return
	}
	if rep := c.batchReply(from); rep != nil {
		// A pooled buffer, owned from here on: the transport recycles it.
		_ = c.sendOwned(transport.Message{To: m.From, Handler: hReply, Arg: m.Arg, Payload: rep})
	} else {
		c.reply(m, nil)
	}
	c.batchAfter()
}

// WaitFor blocks until pred() is true, dispatching incoming requests
// (and batch acknowledgements) while waiting. The aggregation layer
// uses it to drain pending batches without spinning.
func (c *WireConduit) WaitFor(pred func() bool) error {
	return c.wait(pred)
}

// ---- Resilient mode: failure detection and typed rank death ----

// EnableResilience switches the conduit to survivable peer loss.
// From here on: any frame from a peer counts as proof of life; a peer
// silent past HeartbeatInterval is pinged; an unanswered ping past
// HeartbeatTimeout declares the peer dead, as does an observed
// connection loss. Death fails (or completes-as-lost, for the batch
// plane) every pending token to that rank, unblocks requesters, and
// runs onRankDeath exactly once per rank on this rank's goroutine.
// Call before the job starts issuing traffic, on the SPMD goroutine.
func (c *WireConduit) EnableResilience(rc ResilienceConfig, onRankDeath func(rank int)) {
	if c.resilient {
		return
	}
	c.resilient = true
	c.hb = rc.withDefaults()
	c.onRankDeath = onRankDeath
	n := c.Ranks()
	c.dead = make([]bool, n)
	c.deadCause = make([]error, n)
	c.heard = make([]bool, n)
	c.lastHeard = make([]time.Time, n)
	now := time.Now()
	for i := range c.lastHeard {
		c.lastHeard[i] = now
	}
	c.pingOut = make([]bool, n)
	c.tep.SetPeerDownHandler(func(peer int, cause error) { c.markDead(peer, cause) })
	tick := c.hb.HeartbeatInterval / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	c.tep.SetTick(tick, c.onTick)
}

// RankDead reports whether rank has been declared dead.
func (c *WireConduit) RankDead(rank int) bool { return c.isDead(rank) }

// LostBatches counts aggregation batches completed-as-lost because
// their target died.
func (c *WireConduit) LostBatches() int64 { return c.lostBatches }

// After schedules fn to run on this rank's goroutine once d has
// elapsed, swept by the resilience tick (so resolution is the tick
// period, not a wall-clock timer). The retry layer schedules backoffs
// and attempt re-issues here.
func (c *WireConduit) After(d time.Duration, fn func()) {
	c.timers = append(c.timers, wireTimer{at: time.Now().Add(d), fn: fn})
}

// Abort closes the conduit without the goodbye handshake: peers see
// this rank die. The chaos harness's in-process stand-in for kill.
func (c *WireConduit) Abort() { c.tep.Abort() }

// onTick runs on the SPMD goroutine (from Poll, or on a timer while a
// blocking wait sleeps): sweep expired reply deadlines, run due After
// callbacks, and drive the heartbeat probe state machine.
func (c *WireConduit) onTick() {
	now := time.Now()
	// Expired reply deadlines fail their requests (complete voids the
	// rest of their tokens, so a late reply is dropped).
	var expired []uint64
	for tok, x := range c.acks {
		if !x.deadline.IsZero() && now.After(x.deadline) {
			expired = append(expired, tok)
		}
	}
	for _, tok := range expired {
		if x := c.acks[tok]; x != nil {
			c.complete(x, &TimeoutError{Rank: x.to, After: now.Sub(x.deadline)})
		}
	}
	// Due After callbacks (fn may schedule more; those wait for the
	// next sweep).
	if len(c.timers) > 0 {
		var due []func()
		keep := c.timers[:0]
		for _, tm := range c.timers {
			if now.After(tm.at) {
				due = append(due, tm.fn)
			} else {
				keep = append(keep, tm)
			}
		}
		c.timers = keep
		for _, fn := range due {
			fn()
		}
	}
	// Heartbeats: ping any live peer silent past the interval. A peer
	// heard from since the last sweep was heard from now, to within one
	// tick. The probe rides the normal ack plane with a deadline, so an
	// unanswered ping surfaces right here as a TimeoutError, which is
	// what severs the peer.
	me := c.Rank()
	for r := 0; r < c.Ranks(); r++ {
		if c.heard[r] {
			c.heard[r] = false
			c.lastHeard[r] = now
		}
		if r == me || c.dead[r] || c.pingOut[r] {
			continue
		}
		if now.Sub(c.lastHeard[r]) <= c.hb.HeartbeatInterval {
			continue
		}
		c.ring.Instant(obs.KPing, int32(r), 0, 0)
		x := c.newReq(hPing, r, 1, c.hb.HeartbeatTimeout, nil)
		if err := c.post(x, nil, nil); err != nil {
			_ = c.sendFailed(x, err)
			continue
		}
		c.pingOut[r] = true
	}
}

// markDead declares one rank dead, exactly once: records the cause,
// fails or completes-as-lost every pending token addressed to it,
// unblocks collectives, and notifies the layer above. Runs on the
// SPMD goroutine (the transport delivers peer loss through the inbox).
func (c *WireConduit) markDead(rank int, cause error) {
	if c.dead == nil || c.dead[rank] {
		return
	}
	c.dead[rank] = true
	c.deadCause[rank] = cause
	c.ring.Instant(obs.KDeath, int32(rank), 0, 0)
	obs.Logf(1, c.Rank(), "wire: declaring rank %d dead: %v", rank, cause)
	// Collect first: the callbacks may register new tokens.
	var toks []uint64
	for tok, x := range c.acks {
		if x.to == rank {
			toks = append(toks, tok)
		}
	}
	derr := &RankDeadError{Rank: rank, Cause: cause}
	for _, tok := range toks {
		x := c.acks[tok]
		switch {
		case x == nil: // completed with an earlier token of its request
		case x.h == hBatch:
			c.lostBatches++
			c.complete(x, nil)
		default:
			c.complete(x, derr)
		}
	}
	if c.onRankDeath != nil {
		c.onRankDeath(rank)
	}
}

// ---- Global memory management ----

// Alloc reserves size bytes in rank's segment (remote allocation is one
// round trip to the owner, as in the in-process backend).
func (c *WireConduit) Alloc(rank int, size uint64) (uint64, error) {
	if rank == c.Rank() {
		return c.mem.Alloc(size)
	}
	putU64(c.reqHdr[:], size)
	rep, err := c.request(rank, hAlloc, c.reqHdr[:8])
	if err != nil {
		return 0, err
	}
	if v := u64(rep); v != 0 {
		return v - 1, nil
	}
	return 0, fmt.Errorf("gasnet: remote alloc of %d bytes on rank %d failed", size, rank)
}

func (c *WireConduit) onAlloc(_ *transport.TCPEndpoint, m transport.Message) {
	var rep [8]byte
	if off, err := c.mem.Alloc(u64(m.Payload)); err == nil {
		putU64(rep[:], off+1)
	}
	c.reply(m, rep[:])
}

// Free releases an allocation in rank's segment.
func (c *WireConduit) Free(rank int, off uint64) error {
	if rank == c.Rank() {
		return c.mem.Free(off)
	}
	putU64(c.reqHdr[:], off)
	rep, err := c.request(rank, hFree, c.reqHdr[:8])
	if err != nil {
		return err
	}
	if u64(rep) == 0 {
		return fmt.Errorf("gasnet: remote free at offset %d on rank %d failed", off, rank)
	}
	return nil
}

func (c *WireConduit) onFree(_ *transport.TCPEndpoint, m transport.Message) {
	var rep [8]byte
	if c.mem.Free(u64(m.Payload)) == nil {
		putU64(rep[:], 1)
	}
	c.reply(m, rep[:])
}

// ---- Lock service ----

// LockNew creates a lock homed on this rank.
func (c *WireConduit) LockNew() uint64 {
	c.nextLockID++
	c.locks[c.nextLockID] = &wireLockState{}
	return c.nextLockID
}

// LockAcquire blocks until the lock homed on home is held (try: report
// instead of queueing). The home's handler either replies immediately
// or parks the requester's token; the release handler answers parked
// tokens, so the waiter's blocked request completes on handoff.
func (c *WireConduit) LockAcquire(home int, id uint64, try bool) (bool, error) {
	putU64(c.reqHdr[:], id)
	c.reqHdr[8] = 0
	if try {
		c.reqHdr[8] = 1
	}
	rep, err := c.request(home, hLockAcq, c.reqHdr[:9])
	if err != nil {
		return false, err
	}
	return u64(rep) == 1, nil
}

func (c *WireConduit) onLockAcquire(_ *transport.TCPEndpoint, m transport.Message) {
	id, try := u64(m.Payload), m.Payload[8] == 1
	st := c.locks[id]
	if st == nil {
		panic(fmt.Sprintf("gasnet: wire acquire of unknown lock %d", id))
	}
	var rep [8]byte
	switch {
	case !st.held:
		st.held = true
		putU64(rep[:], 1)
	case try:
		// rep stays 0: not acquired.
	default:
		st.queue = append(st.queue, wireLockWaiter{rank: m.From, token: m.Arg})
		return // reply deferred until release hands the lock over
	}
	c.reply(m, rep[:])
}

// LockRelease releases the lock homed on home.
func (c *WireConduit) LockRelease(home int, id uint64) error {
	putU64(c.reqHdr[:], id)
	_, err := c.request(home, hLockRel, c.reqHdr[:8])
	return err
}

func (c *WireConduit) onLockRelease(_ *transport.TCPEndpoint, m transport.Message) {
	st := c.locks[u64(m.Payload)]
	if st == nil || !st.held {
		panic("gasnet: wire release of unheld lock")
	}
	if len(st.queue) > 0 {
		next := st.queue[0]
		st.queue = st.queue[1:]
		// Hand off directly: the lock stays held; answering the parked
		// acquire request wakes the waiter.
		var granted [8]byte
		putU64(granted[:], 1)
		_ = c.send(transport.Message{
			To: next.rank, Handler: hReply, Arg: next.token, Payload: granted[:],
		})
	} else {
		st.held = false
	}
	var rep [8]byte
	putU64(rep[:], 1)
	c.reply(m, rep[:])
}

// ---- Team collectives ----

// Collective payloads (a member's contribution, the root's gathered
// table) have no inherent size bound, so they travel as one or more
// fragments prefixed [total u64][offset u64], every one but the last
// carrying maxFragData bytes; TCP's per-connection ordering keeps one
// sender's fragments in order and the (key, sender) pair separates
// interleaved senders.
const maxFragData = transport.MaxPayload - 16

// maxCollectiveBytes bounds one collective payload: far above any table
// the runtime gathers (the largest the tests move is two 17 MiB
// contributions), it caps what a peer's fragment header can make this
// rank allocate.
const maxCollectiveBytes = 256 << 20

// sendFragmented ships payload to rank `to` in bounded fragments (a
// zero-length payload still sends one header-only fragment, so the
// receiver always completes).
func (c *WireConduit) sendFragmented(to int, handler uint16, key uint64, payload []byte) error {
	total := uint64(len(payload))
	if total > maxCollectiveBytes {
		return fmt.Errorf("gasnet: %d-byte collective payload exceeds the %d-byte bound", total, maxCollectiveBytes)
	}
	off := uint64(0)
	for {
		n := min(total-off, maxFragData)
		frame := frames.Get(int(16 + n))
		putU64(frame[0:], total)
		putU64(frame[8:], off)
		copy(frame[16:], payload[off:off+n])
		// The fragment buffer is pooled and handed to the transport,
		// which recycles it after the writev (or on any error path).
		if err := c.sendOwned(transport.Message{
			To: int32(to), Handler: handler, Arg: key, Payload: frame,
		}); err != nil {
			return err
		}
		off += n
		if off >= total {
			return nil
		}
	}
}

// reassemble folds fragment m into its sender's buffer for m's key in
// frags and returns the complete payload once every byte has arrived.
// A fragment sendFragmented would not have sent next — shorter than its
// header, a total over maxCollectiveBytes or other than the first
// fragment's, an offset other than the bytes received so far, short
// before the last — is dropped and severs its sender. The buffer is
// allocated only once a well-formed first fragment has arrived, so a
// header alone cannot make this rank allocate more than the bytes that
// came with it, times maxCollectiveBytes/maxFragData at most.
func (c *WireConduit) reassemble(frags map[fragKey]*fragBuf, m transport.Message) ([]byte, bool) {
	k := fragKey{key: m.Arg, from: m.From}
	fb := frags[k]
	if fb == nil {
		fb = &fragBuf{}
		frags[k] = fb
	}
	if err := fb.accum(m.Payload); err != nil {
		delete(frags, k)
		c.severMalformed(m, err)
		return nil, false
	}
	if uint64(len(fb.buf)) < fb.total {
		return nil, false
	}
	delete(frags, k)
	return fb.buf, true
}

// severMalformed cuts off the sender of a collective or batch frame that
// breaks the protocol, with a cause naming the handler — as the
// transport does for a frame with a reserved handler id.
func (c *WireConduit) severMalformed(m transport.Message, err error) {
	c.tep.SeverPeer(int(m.From), fmt.Errorf("gasnet: rank %d: rank %d sent a malformed %s frame: %w",
		c.Rank(), m.From, handlerNames[m.Handler], err))
}

// accum appends one fragment, or reports why sendFragmented would not
// have sent it next.
func (fb *fragBuf) accum(payload []byte) error {
	if len(payload) < 16 {
		return fmt.Errorf("%d-byte fragment, under its 16-byte header", len(payload))
	}
	total, off, data := u64(payload), u64(payload[8:]), payload[16:]
	if fb.buf == nil {
		if total > maxCollectiveBytes {
			return fmt.Errorf("fragment of a %d-byte payload, over the %d-byte bound", total, maxCollectiveBytes)
		}
		fb.total = total
	}
	if total != fb.total || off != uint64(len(fb.buf)) || uint64(len(data)) != min(total-off, maxFragData) {
		return fmt.Errorf("%d bytes at offset %d of %d, after %d of %d bytes", len(data), off, total, len(fb.buf), fb.total)
	}
	if fb.buf == nil {
		fb.buf = make([]byte, 0, total)
	}
	fb.buf = append(fb.buf, data...)
	return nil
}

// TeamAllGather deposits this rank's contribution with the team root
// (members[0]) and returns every member's, indexed by team rank. The
// rendezvous is keyed by the caller-chosen key, so independent teams
// gather concurrently; contributions park by world rank at the root,
// which may receive deposits before it enters the collective itself.
//
// In resilient mode the root completes once every member has either
// deposited or been declared dead (a deposit that arrived before the
// death notice still counts), a dead member's slot comes back empty
// and no table is sent to it, and a member fails with RankDeadError if
// the root dies — the rendezvous point is gone.
func (c *WireConduit) TeamAllGather(key uint64, members []int, contrib []byte) ([][]byte, error) {
	root := members[0]
	if c.Rank() != root {
		if err := c.deadErr(root); err != nil {
			return nil, err
		}
		if err := c.sendFragmented(root, hTeamGather, key, contrib); err != nil {
			if derr := c.noteSendError(root, err); derr != nil {
				return nil, derr
			}
			return nil, err
		}
		var enc []byte
		found := false
		if err := c.wait(func() bool {
			enc, found = c.teamResult[key]
			return found || c.isDead(root)
		}); err != nil {
			return nil, err
		}
		if !found {
			return nil, c.deadErr(root)
		}
		delete(c.teamResult, key)
		return decodeParts(enc, len(members))
	}

	c.depositTeam(key, int32(root), contrib)
	if err := c.wait(func() bool { return c.teamArrived(key, members) }); err != nil {
		return nil, err
	}
	byRank := c.teamParts[key]
	delete(c.teamParts, key)
	parts := make([][]byte, len(members))
	for i, m := range members {
		parts[i] = byRank[int32(m)] // nil: declared dead before depositing
	}
	enc := encodeParts(parts)
	for _, m := range members[1:] {
		if c.isDead(m) {
			continue
		}
		if err := c.sendFragmented(m, hTeamResult, key, enc); err != nil {
			if c.noteSendError(m, err) != nil {
				continue // declared dead mid-broadcast; the rest still get the table
			}
			return nil, err
		}
	}
	// Members may not block again on our traffic; ship the tables now.
	c.tep.Flush()
	return parts, nil
}

// teamArrived is the root's completion predicate: every member has
// deposited or, in resilient mode, been declared dead.
func (c *WireConduit) teamArrived(key uint64, members []int) bool {
	byRank := c.teamParts[key]
	for _, m := range members {
		if _, ok := byRank[int32(m)]; !ok && !c.isDead(m) {
			return false
		}
	}
	return true
}

// TeamBarrier is a payload-free team allgather.
func (c *WireConduit) TeamBarrier(key uint64, members []int) error {
	_, err := c.TeamAllGather(key, members, nil)
	return err
}

// depositTeam parks one member's contribution at the root. A nil
// contribution still creates the map entry — arrival is what the
// completion predicate counts.
func (c *WireConduit) depositTeam(key uint64, rank int32, contrib []byte) {
	byRank := c.teamParts[key]
	if byRank == nil {
		byRank = make(map[int32][]byte)
		c.teamParts[key] = byRank
	}
	if contrib == nil {
		contrib = []byte{}
	}
	byRank[rank] = contrib
}

func (c *WireConduit) onTeamGather(_ *transport.TCPEndpoint, m transport.Message) {
	if c.isDead(int(m.From)) {
		// The collective may already have completed without this rank;
		// its late deposit must not park for a key nobody waits on.
		return
	}
	if full, done := c.reassemble(c.teamFrags, m); done {
		c.depositTeam(m.Arg, m.From, full)
	}
}

func (c *WireConduit) onTeamResult(_ *transport.TCPEndpoint, m transport.Message) {
	if full, done := c.reassemble(c.teamResultFrags, m); done {
		c.teamResult[m.Arg] = full
	}
}

// encodeParts length-prefixes each rank's contribution.
func encodeParts(parts [][]byte) []byte {
	total := 0
	for _, p := range parts {
		total += 8 + len(p)
	}
	enc := make([]byte, total)
	off := 0
	for _, p := range parts {
		putU64(enc[off:], uint64(len(p)))
		off += 8
		off += copy(enc[off:], p)
	}
	return enc
}

func decodeParts(enc []byte, n int) ([][]byte, error) {
	parts := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(enc) < 8 {
			return nil, fmt.Errorf("gasnet: truncated allgather table at rank %d", i)
		}
		ln := u64(enc)
		enc = enc[8:]
		if uint64(len(enc)) < ln {
			return nil, fmt.Errorf("gasnet: truncated allgather contribution for rank %d", i)
		}
		if ln > 0 {
			parts[i] = enc[:ln:ln]
		}
		enc = enc[ln:]
	}
	return parts, nil
}

// Poll dispatches queued requests without blocking.
func (c *WireConduit) Poll() int { return c.tep.Poll() }

// Goodbye announces a clean close to every peer. Call it on the
// success path only, after the job's final Barrier and before Close;
// a rank that aborts must skip it so its peers see the EOF as peer
// loss and abort too.
func (c *WireConduit) Goodbye() { c.tep.Goodbye() }

// Close tears down the transport endpoint. Callers must have
// synchronized (a final Barrier) first, or in-flight peers' requests
// may fail.
func (c *WireConduit) Close() error { return c.tep.Close() }
