// Package agg implements per-destination message aggregation — the
// software coalescing layer that makes fine-grained remote operations
// viable over a wire conduit. The paper's §IV runtime (and every PGAS
// runtime since) pays a full active-message round trip per remote
// access; when the conduit is a framed-TCP wire, an 8-byte put costs
// two frames and two header parses. The canonical answer is to buffer
// small operations per destination rank and ship them as one batch
// frame, trading a bounded amount of latency for an order of magnitude
// fewer messages.
//
// The Aggregator owns the buffering and flush policy only; it is
// deliberately transport-free. Callers supply a Flusher that ships one
// encoded batch to a rank and invokes a completion callback when the
// target has applied every operation in it; the receiving side decodes
// batches with Apply against an Applier. internal/core glues both ends
// to the gasnet conduit (see core.AggPut / AggXor64 / AggSend) and
// keeps a no-op fast path on the in-process backend, where a remote
// access is already a direct segment load/store.
//
// Flush policy: a destination's batch is shipped when it reaches
// Config.MaxOps operations or Config.MaxBytes encoded bytes, when the
// oldest buffered operation exceeds Config.MaxAge at a Tick (the
// progress-loop hook), or on an explicit Flush/FlushAll (barriers and
// waits flush). Operations to one destination are applied in the order
// they were buffered; no order holds across destinations, and none
// holds against unaggregated operations unless the caller flushes
// first. With Config.Adaptive the MaxOps/MaxAge thresholds become
// per-destination operating points steered by an AIMD controller fed
// from the flush-reason mix (see Config.Adaptive and the controller
// law at adaptWindow).
//
// An Aggregator is confined to its rank's SPMD goroutine, like the
// conduit it feeds; it performs no internal locking.
package agg

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"upcxx/internal/frames"
	"upcxx/internal/obs"
	"upcxx/internal/pad"
)

// Batch op kinds. A batch payload is a concatenation of operations,
// each a one-byte kind followed by its fixed header and inline data:
//
//	put: [kind][off u64][len u32][data]
//	xor: [kind][off u64][val u64]
//	am:  [kind][id u16][len u32][payload]
const (
	opPut byte = 1
	opXor byte = 2
	opAM  byte = 3
)

// frameOverhead estimates the wire bytes an unbatched operation pays
// beyond its encoded body: one 26-byte transport frame header for the
// request and one for its reply. The bytes-saved counter charges this
// for every operation a batch absorbs past its first.
const frameOverhead = 52

// Default flush thresholds. MaxOps is the primary knob: batches of ~64
// small ops amortize the per-frame cost well below the per-op cost
// while keeping added latency to one MaxAge in the worst case.
const (
	DefaultMaxOps   = 64
	DefaultMaxBytes = 32 << 10
	DefaultMaxAge   = 200 * time.Microsecond
)

// Config sets the flush thresholds. Zero fields take the defaults;
// MaxOps = 1 effectively disables coalescing (every operation ships as
// its own single-op batch), which is the "aggregation off" baseline the
// frame-reduction tests compare against.
type Config struct {
	// MaxOps flushes a destination once this many ops are buffered.
	MaxOps int
	// MaxBytes flushes a destination once its encoded batch reaches
	// this size; it also bounds the batch payload handed to the
	// Flusher (a single oversized op still ships alone, see Put).
	MaxBytes int
	// MaxAge flushes a destination at the next Tick once its oldest
	// buffered op has waited this long.
	MaxAge time.Duration
	// Adaptive replaces the static MaxOps/MaxAge thresholds with a
	// per-destination AIMD controller seeded from them: destinations
	// whose batches fill before they age out grow their op budget
	// (additively, toward adaptMaxOps) and relax their age bound;
	// destinations whose batches age out near-empty shed budget
	// (multiplicatively, toward 1 op) and tighten it — so bulk flows
	// converge to deep batches and latency-sensitive trickles to
	// immediate sends, per destination, with no retuning by the
	// caller. MaxBytes stays a static bound either way. The realized
	// per-destination knobs surface through Tuning and the
	// agg_adaptive_* / agg_maxops_avg / agg_maxage_us_avg counters.
	Adaptive bool
}

func (c Config) withDefaults() Config {
	if c.MaxOps <= 0 {
		c.MaxOps = DefaultMaxOps
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.MaxAge <= 0 {
		c.MaxAge = DefaultMaxAge
	}
	return c
}

// Flusher ships one encoded batch of ops operations to rank dst and
// invokes done exactly once when the destination has applied every
// operation in the batch (on the wire: when the batch ack returns).
// The batch slice is owned by the Flusher from the call on; it comes
// from the frames pool, and the Flusher (or the layer it hands the
// batch to — the wire conduit's SendBatch recycles after the writev)
// must route it to frames.Put once the bytes are on the wire.
type Flusher func(dst int, batch []byte, ops int, done func())

// Adaptive controller law. The controller watches a window of
// adaptWindow threshold-triggered flushes per destination and
// classifies the load by which trigger dominated (explicit and barrier
// flushes say nothing about load shape and are not counted):
//
//   - size-dominated (≥3/4 of the window hit MaxOps/MaxBytes): bulk
//     flow. Additive increase — the op budget grows by adaptStep up to
//     adaptMaxOps, and the age bound relaxes ×5/4 (capped at 8× the
//     configured MaxAge) so deep batches are not cut short. The raise
//     is rate-gated: at a small budget a trickle also reads as size
//     flushes (a single op fills a 1-op batch), so the controller
//     raises only when the window's flushes arrived faster than the
//     age bound on average — if ops trickle in slower than MaxAge, a
//     deeper batch cannot coalesce them and would only park each op
//     for the full age bound again. The gate is what lets the budget
//     *stay* at the floor under a steady trickle instead of probing
//     a latency-spiking sawtooth.
//   - age-dominated (≥3/4 hit MaxAge): trickle. Multiplicative
//     decrease — the op budget halves toward 1 *if* batches were also
//     running near-empty (occupancy under half the budget; an age
//     flush of a nearly full batch means the budget is fine and only
//     the age bound is slightly tight), and the age bound tightens
//     ×4/5 (floored at 1/8 of the configured MaxAge) so a trickle's
//     ops stop paying the full worst-case latency.
//   - mixed: no change.
//
// The window then resets. AIMD gives the usual sawtooth convergence:
// sustained bulk load climbs to deep batches, a shift to latency-
// sensitive traffic collapses the budget within a few windows.
const (
	adaptWindow = 16
	adaptStep   = 8
	adaptMaxOps = 1024
)

// destCtl is one destination's adaptive controller: the realized
// knobs, plus the flush-classification window. The knobs are atomics
// because Counters and Tuning read them from other goroutines (the
// debug endpoint, tests) while the SPMD goroutine retunes; the window
// fields are touched only on the flush path and need no
// synchronization.
type destCtl struct {
	maxOps   atomic.Int64
	maxAge   atomic.Int64 // nanoseconds
	sizeFl   int          // size-triggered flushes in the current window
	ageFl    int          // age-triggered flushes in the current window
	opsSum   int          // total ops across the window's flushes
	winStart time.Time    // when the current window's first flush landed
}

// Applier executes decoded batch operations against the receiving
// rank's state: puts and xors against its registered segment, AMs
// against its handler table. Handlers must not block. An error rejects
// an op the sender's bytes got wrong (an offset outside the segment, an
// unregistered handler) and ends the batch.
type Applier interface {
	Put(off uint64, data []byte) error
	Xor64(off uint64, val uint64) error
	AM(id uint16, payload []byte) error
}

// destBuf is one destination rank's open batch. dones holds only the
// non-nil completion callbacks of its ops; at flush the slice moves to
// the batch's shipped record and an emptied one takes its place, so the
// backing arrays are reused across flushes.
type destBuf struct {
	buf    []byte
	ops    int
	dones  []func()
	oldest time.Time // when the oldest buffered op was added
}

// shipped is one batch in flight: what its acknowledgement must
// settle. Records are recycled through Aggregator.free, and ack is the
// acked method bound once per record, so a flush in steady state
// allocates neither a closure nor a callback slice.
type shipped struct {
	a     *Aggregator
	ops   int
	dones []func()
	ack   func()
}

// acked settles one acknowledged batch: its ops leave the in-flight
// count and their completion callbacks fire, in issue order.
func (s *shipped) acked() {
	a := s.a
	a.inflight -= s.ops
	for _, d := range s.dones {
		d()
	}
	clear(s.dones) // drop the callbacks' referents
	s.dones = s.dones[:0]
	a.free = append(a.free, s)
}

// Aggregator buffers small remote operations into per-destination
// batches. See the package comment for the flush policy and the
// threading discipline. Its rank's goroutine writes it on every
// buffered op, so the struct sits in a pad bracket and bufs and ctls on
// pad.Slice backing arrays: ranks that share a heap share none of
// these cache lines.
type Aggregator struct {
	_ pad.Line

	cfg      Config
	flush    Flusher
	bufs     []destBuf
	free     []*shipped // acknowledged batch records awaiting reuse
	ctls     []destCtl  // per-destination controllers; nil unless cfg.Adaptive
	buffered int        // ops across all open batches (so the empty case is O(1))
	inflight int        // ops shipped but not yet acknowledged

	now func() time.Time // injectable clock for tests

	// Observability (SetObs): the rank's span ring (nil while tracing
	// is off) and a flush-size histogram.
	ring       *obs.Ring
	flushBytes *obs.Histogram

	// Counters (see Counters for the exported names). Atomics: the
	// debug endpoint pulls them live from another goroutine while the
	// SPMD goroutine flushes.
	batches    atomic.Int64
	opsTotal   atomic.Int64
	batchBytes atomic.Int64
	savedBytes atomic.Int64
	// byReason counts flushes per trigger, indexed by the obs.Flush*
	// reason codes.
	byReason [obs.FlushBarrier + 1]atomic.Int64
	// Adaptive-controller decisions across all destinations.
	raises atomic.Int64
	cuts   atomic.Int64

	_ pad.Line
}

// New builds an aggregator over ranks destinations shipping through
// flush.
func New(ranks int, cfg Config, flush Flusher) *Aggregator {
	a := &Aggregator{
		cfg:   cfg.withDefaults(),
		flush: flush,
		bufs:  pad.Slice[destBuf](ranks),
		now:   time.Now,
	}
	if a.cfg.Adaptive {
		a.ctls = pad.Slice[destCtl](ranks)
		for i := range a.ctls {
			a.ctls[i].maxOps.Store(int64(a.cfg.MaxOps))
			a.ctls[i].maxAge.Store(int64(a.cfg.MaxAge))
		}
	}
	return a
}

// maxOpsFor is the realized op budget for dst: the controller's when
// adaptive, the configured threshold otherwise.
func (a *Aggregator) maxOpsFor(dst int) int {
	if a.ctls == nil {
		return a.cfg.MaxOps
	}
	return int(a.ctls[dst].maxOps.Load())
}

// maxAgeFor is the realized age bound for dst.
func (a *Aggregator) maxAgeFor(dst int) time.Duration {
	if a.ctls == nil {
		return a.cfg.MaxAge
	}
	return time.Duration(a.ctls[dst].maxAge.Load())
}

// Tuning reports the realized flush knobs for dst — the controller's
// current operating point when adaptive, the static configuration
// otherwise. Safe to call from any goroutine.
func (a *Aggregator) Tuning(dst int) (maxOps int, maxAge time.Duration) {
	return a.maxOpsFor(dst), a.maxAgeFor(dst)
}

// SetObs attaches the aggregator to the observability plane: the
// owning rank's span ring (may be nil — tracing disabled) and the
// flush-size histogram registered under the rank's label.
func (a *Aggregator) SetObs(ring *obs.Ring, rank int) {
	a.ring = ring
	a.flushBytes = obs.Reg().NewHistogram("upcxx_agg_flush_bytes", rank)
}

// room prepares dst's batch for an op encoding to need bytes: if the
// open batch would overflow MaxBytes it is flushed first, so a batch
// handed to the Flusher only exceeds MaxBytes when a single op does.
func (a *Aggregator) room(dst, need int) *destBuf {
	b := &a.bufs[dst]
	if b.ops > 0 && len(b.buf)+need > a.cfg.MaxBytes {
		a.flushReason(dst, obs.FlushMaxBytes)
	}
	if b.buf == nil {
		// Pooled encoder buffer, sized so the common batch never
		// regrows (MaxBytes is its flush bound); a single oversized op
		// gets an exact-size buffer instead of append-doubling into it.
		n := a.cfg.MaxBytes
		if need > n {
			n = need
		}
		b.buf = frames.Get(n)[:0]
	}
	return b
}

// noteOp finishes buffering one op: completion bookkeeping, then the
// size-based flush checks.
func (a *Aggregator) noteOp(dst int, b *destBuf, done func()) {
	if b.ops == 0 {
		b.oldest = a.now()
	}
	b.ops++
	a.buffered++
	if done != nil {
		b.dones = append(b.dones, done)
	}
	a.ring.Instant(obs.KAggOp, int32(dst), uint32(len(b.buf)), 0)
	if b.ops >= a.maxOpsFor(dst) {
		a.flushReason(dst, obs.FlushMaxOps)
	} else if len(b.buf) >= a.cfg.MaxBytes {
		a.flushReason(dst, obs.FlushMaxBytes)
	}
}

func le64(buf []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(buf, w[:]...)
}

func le32(buf []byte, v uint32) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	return append(buf, w[:]...)
}

// Put buffers a write of data into dst's segment at off; done (may be
// nil) runs when the destination has applied it. data is copied.
func (a *Aggregator) Put(dst int, off uint64, data []byte, done func()) {
	b := a.room(dst, 13+len(data))
	b.buf = append(b.buf, opPut)
	b.buf = le64(b.buf, off)
	b.buf = le32(b.buf, uint32(len(data)))
	b.buf = append(b.buf, data...)
	a.noteOp(dst, b, done)
}

// Xor64 buffers an atomic xor of val into the word at off in dst's
// segment. Unlike the conduit's blocking Xor64 the updated value does
// not travel back; aggregated xors are fire-and-forget updates.
func (a *Aggregator) Xor64(dst int, off uint64, val uint64, done func()) {
	b := a.room(dst, 17)
	b.buf = append(b.buf, opXor)
	b.buf = le64(b.buf, off)
	b.buf = le64(b.buf, val)
	a.noteOp(dst, b, done)
}

// Send buffers a registered-handler active message for dst; the
// target's Applier dispatches it to handler id with the payload (which
// is copied here).
func (a *Aggregator) Send(dst int, id uint16, payload []byte, done func()) {
	a.SendParts(dst, id, payload, nil, done)
}

// SendParts is Send for a payload held in two pieces — a protocol
// header the caller built on its stack and a body it was handed — which
// are copied back to back into the open batch, so a layered message
// needs no buffer of its own.
func (a *Aggregator) SendParts(dst int, id uint16, hdr, body []byte, done func()) {
	n := len(hdr) + len(body)
	b := a.room(dst, 7+n)
	b.buf = append(b.buf, opAM, byte(id), byte(id>>8))
	b.buf = le32(b.buf, uint32(n))
	b.buf = append(b.buf, hdr...)
	b.buf = append(b.buf, body...)
	a.noteOp(dst, b, done)
}

// Flush ships dst's open batch, if any.
func (a *Aggregator) Flush(dst int) { a.flushReason(dst, obs.FlushExplicit) }

// flushReason ships dst's open batch, recording why it shipped.
func (a *Aggregator) flushReason(dst int, reason uint64) {
	b := &a.bufs[dst]
	if b.ops == 0 {
		return
	}
	var sh *shipped
	if n := len(a.free); n > 0 {
		sh, a.free = a.free[n-1], a.free[:n-1]
	} else {
		sh = &shipped{a: a}
		sh.ack = sh.acked
	}
	batch, ops := b.buf, b.ops
	sh.ops = ops
	sh.dones, b.dones = b.dones, sh.dones
	b.buf, b.ops = nil, 0

	a.buffered -= ops
	a.inflight += ops
	a.batches.Add(1)
	a.opsTotal.Add(int64(ops))
	a.batchBytes.Add(int64(len(batch)))
	a.savedBytes.Add(int64(ops-1) * frameOverhead)
	if reason < uint64(len(a.byReason)) {
		a.byReason[reason].Add(1)
	}
	a.ring.Instant(obs.KAggFlush, int32(dst), uint32(len(batch)), reason)
	a.flushBytes.Observe(int64(len(batch)))
	if a.ctls != nil {
		a.adapt(dst, reason, ops)
	}

	a.flush(dst, batch, ops, sh.ack)
}

// adapt feeds one threshold-triggered flush into dst's controller and
// retunes the knobs when the classification window fills. See the law
// above the adaptWindow constants.
func (a *Aggregator) adapt(dst int, reason uint64, ops int) {
	c := &a.ctls[dst]
	switch reason {
	case obs.FlushMaxOps, obs.FlushMaxBytes:
		c.sizeFl++
	case obs.FlushMaxAge:
		c.ageFl++
	default:
		// Explicit and barrier flushes are caller-driven; they carry
		// no signal about whether the thresholds fit the load.
		return
	}
	if c.sizeFl+c.ageFl == 1 {
		c.winStart = a.now()
	}
	c.opsSum += ops
	n := c.sizeFl + c.ageFl
	if n < adaptWindow {
		return
	}
	const dominant = adaptWindow * 3 / 4
	mo := c.maxOps.Load()
	ma := c.maxAge.Load()
	switch {
	case c.sizeFl >= dominant:
		// Rate gate (see the law above): only raise when this window's
		// flushes averaged less than one age bound apart — flushes
		// spaced wider are a trickle wearing a too-small budget, and a
		// deeper batch would park ops without coalescing anything.
		if a.now().Sub(c.winStart) >= time.Duration(ma)*adaptWindow {
			break
		}
		mo = min(adaptMaxOps, mo+adaptStep)
		ma = min(int64(a.cfg.MaxAge)*8, ma*5/4)
		a.raises.Add(1)
	case c.ageFl >= dominant:
		if int64(c.opsSum/n) <= mo/2 {
			mo = max(1, mo/2)
		}
		ma = max(int64(a.cfg.MaxAge)/8, ma*4/5)
		a.cuts.Add(1)
	}
	c.maxOps.Store(mo)
	c.maxAge.Store(ma)
	c.sizeFl, c.ageFl, c.opsSum = 0, 0, 0
}

// FlushAll ships every open batch. O(1) when nothing is buffered, so
// progress loops and pre-block flushes can call it freely.
func (a *Aggregator) FlushAll() { a.flushAllReason(obs.FlushExplicit) }

// FlushAllBarrier is FlushAll for the pre-barrier drain, so the flush
// trigger shows up distinctly in traces and counters.
func (a *Aggregator) FlushAllBarrier() { a.flushAllReason(obs.FlushBarrier) }

func (a *Aggregator) flushAllReason(reason uint64) {
	if a.buffered == 0 {
		return
	}
	for dst := range a.bufs {
		a.flushReason(dst, reason)
	}
}

// Tick is the progress-loop hook: it flushes destinations whose oldest
// buffered op has exceeded MaxAge and reports how many batches it
// shipped. Ranks call it from Advance and while waiting — often once
// per received message — so the empty case returns without reading the
// clock or scanning destinations.
func (a *Aggregator) Tick() int {
	if a.buffered == 0 {
		return 0
	}
	now := a.now()
	n := 0
	for dst := range a.bufs {
		if b := &a.bufs[dst]; b.ops > 0 && now.Sub(b.oldest) >= a.maxAgeFor(dst) {
			a.flushReason(dst, obs.FlushMaxAge)
			n++
		}
	}
	return n
}

// Buffered reports how many ops sit in open batches.
func (a *Aggregator) Buffered() int { return a.buffered }

// Pending reports how many ops are not yet known applied: buffered
// plus shipped-but-unacknowledged. Barriers drain it to zero.
func (a *Aggregator) Pending() int { return a.buffered + a.inflight }

// Counters reports the aggregation metrics for the bench harness:
// batches shipped, ops coalesced, encoded batch bytes, the estimated
// wire bytes saved versus one frame pair per op, and the realized
// ops-per-batch ratio.
func (a *Aggregator) Counters() map[string]float64 {
	batches := a.batches.Load()
	ops := a.opsTotal.Load()
	c := map[string]float64{
		"agg_batches":        float64(batches),
		"agg_ops":            float64(ops),
		"agg_batch_bytes":    float64(a.batchBytes.Load()),
		"agg_saved_bytes":    float64(a.savedBytes.Load()),
		"agg_flush_maxops":   float64(a.byReason[obs.FlushMaxOps].Load()),
		"agg_flush_maxbytes": float64(a.byReason[obs.FlushMaxBytes].Load()),
		"agg_flush_maxage":   float64(a.byReason[obs.FlushMaxAge].Load()),
		"agg_flush_explicit": float64(a.byReason[obs.FlushExplicit].Load()),
		"agg_flush_barrier":  float64(a.byReason[obs.FlushBarrier].Load()),
	}
	if batches > 0 {
		c["agg_ops_per_batch"] = float64(ops) / float64(batches)
	}
	if a.ctls != nil {
		c["agg_adaptive_raises"] = float64(a.raises.Load())
		c["agg_adaptive_cuts"] = float64(a.cuts.Load())
		var mo, ma float64
		for i := range a.ctls {
			mo += float64(a.ctls[i].maxOps.Load())
			ma += float64(a.ctls[i].maxAge.Load())
		}
		n := float64(len(a.ctls))
		c["agg_maxops_avg"] = mo / n
		c["agg_maxage_us_avg"] = ma / n / 1e3
	}
	return c
}

// Apply decodes one batch payload and executes each op against ap, in
// order, returning how many ops ran. A truncated or unknown op, or one
// ap rejects, aborts with an error (a correct peer never produces one).
func Apply(batch []byte, ap Applier) (int, error) {
	n := 0
	for len(batch) > 0 {
		kind := batch[0]
		batch = batch[1:]
		var err error
		switch kind {
		case opPut:
			if len(batch) < 12 {
				return n, fmt.Errorf("agg: truncated put header")
			}
			off := binary.LittleEndian.Uint64(batch)
			ln := int(binary.LittleEndian.Uint32(batch[8:]))
			batch = batch[12:]
			if len(batch) < ln {
				return n, fmt.Errorf("agg: put data truncated: want %d, have %d", ln, len(batch))
			}
			err = ap.Put(off, batch[:ln])
			batch = batch[ln:]
		case opXor:
			if len(batch) < 16 {
				return n, fmt.Errorf("agg: truncated xor op")
			}
			err = ap.Xor64(binary.LittleEndian.Uint64(batch), binary.LittleEndian.Uint64(batch[8:]))
			batch = batch[16:]
		case opAM:
			if len(batch) < 6 {
				return n, fmt.Errorf("agg: truncated am header")
			}
			id := uint16(batch[0]) | uint16(batch[1])<<8
			ln := int(binary.LittleEndian.Uint32(batch[2:]))
			batch = batch[6:]
			if len(batch) < ln {
				return n, fmt.Errorf("agg: am payload truncated: want %d, have %d", ln, len(batch))
			}
			err = ap.AM(id, batch[:ln])
			batch = batch[ln:]
		default:
			return n, fmt.Errorf("agg: unknown op kind %d", kind)
		}
		if err != nil {
			return n, fmt.Errorf("agg: op %d: %w", n, err)
		}
		n++
	}
	return n, nil
}
