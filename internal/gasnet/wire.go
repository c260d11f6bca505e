package gasnet

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"upcxx/internal/fault"
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
	tep   *transport.TCPEndpoint
	mem   Memory
	me, n int // this rank and the job size

	// wait is the blocking-wait primitive every parked operation uses
	// (requests, collectives, lock grants). It defaults to park, the
	// transport's own wait; a composing conduit (HierConduit) replaces
	// it with a loop that also services its other plane and parks in
	// park, so a rank blocked inside a wire operation still serves
	// co-located peers' shared-memory requests.
	wait, park func(pred func() bool) error

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

	// Resilient mode (WireConfig.Resilience): nil slices mean legacy
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
	// the stats themselves are atomics.
	tx, rx [hLast + 1]wireStat

	// ring is this rank's span ring (nil unless tracing was on when the
	// conduit was built).
	ring *obs.Ring

	// opts is what Connect starts the endpoint with.
	opts transport.Options
}

// wireStat counts one direction of one handler's traffic.
type wireStat struct {
	frames atomic.Int64
	bytes  atomic.Int64 // payload bytes (the fixed 26-byte frame header is not included)
}

func (s *wireStat) add(bytes int) {
	s.frames.Add(1)
	s.bytes.Add(int64(bytes))
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

// WireConfig is what a wire conduit is built with, fixed for its life.
type WireConfig struct {
	// Fault is the rank's fault injector, consulted on every outgoing
	// remote frame; nil injects nothing.
	Fault *fault.Injector
	// Resilience, when set, builds the conduit survivable: any frame
	// from a peer is proof of life; a peer silent past
	// HeartbeatInterval is pinged; an unanswered ping past
	// HeartbeatTimeout declares the peer dead, as does an observed
	// connection loss. Death fails (or completes-as-lost, for the batch
	// plane) every pending token to that rank and unblocks requesters.
	// Nil keeps the legacy model: a lost peer tears the endpoint down.
	Resilience *ResilienceConfig
}

// NewWireConduit builds the conduit over a listening endpoint, serving
// remote requests against mem (this rank's segment); Connect then wires
// the mesh. The endpoint's handler table must be unused; NewWireConduit
// owns it.
func NewWireConduit(tep *transport.TCPEndpoint, mem Memory, cfg WireConfig) *WireConduit {
	c := &WireConduit{
		tep:             tep,
		mem:             mem,
		me:              tep.Rank(),
		n:               tep.Ranks(),
		acks:            make(map[uint64]*wireReq),
		void:            make(map[uint64]struct{}),
		locks:           make(map[uint64]*wireLockState),
		teamParts:       make(map[uint64]map[int32][]byte),
		teamFrags:       make(map[fragKey]*fragBuf),
		teamResult:      make(map[uint64][]byte),
		teamResultFrags: make(map[fragKey]*fragBuf),
	}
	c.ring = obs.RingFor(c.me)
	c.park = tep.WaitFor
	c.wait = c.park
	c.opts = transport.Options{Fault: cfg.Fault, Ring: c.ring, LandOn: hPut, Lander: c.landPut}
	if rc := cfg.Resilience; rc != nil {
		c.resilient = true
		c.hb = rc.withDefaults()
		c.dead = make([]bool, c.n)
		c.deadCause = make([]error, c.n)
		c.heard = make([]bool, c.n)
		c.lastHeard = make([]time.Time, c.n)
		now := time.Now()
		for i := range c.lastHeard {
			c.lastHeard[i] = now
		}
		c.pingOut = make([]bool, c.n)
		c.opts.PeerDown = c.markDead
		c.opts.TickEvery = max(c.hb.HeartbeatInterval/4, time.Millisecond)
		c.opts.Tick = c.onTick
	}
	c.SetBatchHandler(func(int, []byte) error {
		return fmt.Errorf("rank %d has no batch handler installed", c.me)
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
	return c
}

// Connect wires the endpoint's mesh (addrs indexed by rank; bounded by
// deadline, zero: unbounded) and starts it with everything its readers
// and timers consult: the fault injector, the span ring, hPut's lander
// and, on a resilient conduit, the peer-down handler and the heartbeat
// tick. Call it once, after every handler is registered (a composing
// conduit registers its own in its constructor).
func (c *WireConduit) Connect(addrs []string, deadline time.Time) error {
	return c.tep.ConnectBy(addrs, deadline, c.opts)
}

// register installs a handler wrapped with receive-side counting (and,
// in resilient mode, liveness bookkeeping: any frame from a peer is
// proof of life, noted as a flag the next tick folds into lastHeard —
// no clock read per frame).
func (c *WireConduit) register(h uint16, fn func(m transport.Message)) {
	if int(h) >= len(c.rx) {
		panic(fmt.Sprintf("gasnet: wire handler %d registered above hLast (%d): its frames would go uncounted", h, hLast))
	}
	rx := &c.rx[h]
	c.tep.Register(h, func(_ *transport.TCPEndpoint, m transport.Message) {
		n := len(m.Payload) + int(m.Landed)
		rx.add(n)
		c.ring.Instant(obs.KWireRx, m.From, uint32(n), uint64(m.Handler))
		if c.heard != nil {
			c.heard[m.From] = true
		}
		fn(m)
	})
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
	c.tx[m.Handler].add(n)
	c.ring.Instant(obs.KWireTx, m.To, uint32(n), uint64(m.Handler))
	return c.tep.SendLong(m, data)
}

// sendOwned is send with ownership transfer: the payload (typically a
// frames pool buffer) belongs to the transport from the call on and is
// recycled once the frame ships.
func (c *WireConduit) sendOwned(m transport.Message) error {
	c.tx[m.Handler].add(len(m.Payload))
	c.ring.Instant(obs.KWireTx, m.To, uint32(len(m.Payload)), uint64(m.Handler))
	return c.tep.SendOwned(m)
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
	fold := func(prefix string, dir *[hLast + 1]wireStat) {
		var frames, bytes int64
		for h := range dir {
			f, b := dir[h].frames.Load(), dir[h].bytes.Load()
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
	fold("wire_tx", &c.tx)
	fold("wire_rx", &c.rx)
	for k, v := range c.tep.Counters() {
		out[k] = v
	}
	return out
}

// Rank returns this conduit's rank.
func (c *WireConduit) Rank() int { return c.me }

// Ranks returns the job size.
func (c *WireConduit) Ranks() int { return c.n }

// Capabilities: batching, traffic counters, external wakeup and — when
// built with a Resilience config — resilience. No locality: a flat wire
// mesh encodes no co-location.
func (c *WireConduit) Capabilities() Caps {
	caps := Caps{Batch: c, Counters: c, Waker: c}
	if c.resilient {
		caps.Resilient = c
	}
	return caps
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
func (c *WireConduit) onReply(m transport.Message) {
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

func u64(p []byte) uint64       { return binary.LittleEndian.Uint64(p) }
func putU64(p []byte, v uint64) { binary.LittleEndian.PutUint64(p, v) }

// Poll dispatches queued requests without blocking.
func (c *WireConduit) Poll() int { return c.tep.Poll() }

// pollBeforePark is Poll for the poll phase of HierConduit's wait, which
// parks in c.park once its polls are spent (transport.PollBeforePark).
func (c *WireConduit) pollBeforePark() int { return c.tep.PollBeforePark() }

// Goodbye announces a clean close to every peer. Call it on the
// success path only, after the job's final Barrier and before Close;
// a rank that aborts must skip it so its peers see the EOF as peer
// loss and abort too.
func (c *WireConduit) Goodbye() { c.tep.Goodbye() }

// Close tears down the transport endpoint. Callers must have
// synchronized (a final Barrier) first, or in-flight peers' requests
// may fail.
func (c *WireConduit) Close() error { return c.tep.Close() }

// WaitFor blocks until pred() is true, dispatching incoming requests
// (and batch acknowledgements) while waiting. The aggregation layer
// uses it to drain pending batches without spinning.
func (c *WireConduit) WaitFor(pred func() bool) error {
	return c.wait(pred)
}

// flush ships every queued frame now: a caller that sent and may not
// wait or poll again before its peers need the frames.
func (c *WireConduit) flush() { c.tep.Flush() }

// severMalformed cuts off the sender of a collective or batch frame that
// breaks the protocol, with a cause naming the handler — as the
// transport does for a frame with a reserved handler id.
func (c *WireConduit) severMalformed(m transport.Message, err error) {
	c.tep.SeverPeer(int(m.From), fmt.Errorf("gasnet: rank %d: rank %d sent a malformed %s frame: %w",
		c.Rank(), m.From, handlerNames[m.Handler], err))
}
