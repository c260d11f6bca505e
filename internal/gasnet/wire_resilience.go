package gasnet

import (
	"errors"
	"time"

	"upcxx/internal/obs"
	"upcxx/internal/transport"
)

// ---- Wire conduit: resilient mode, failure detection and typed rank death ----

// wireTimer is one After callback.
type wireTimer struct {
	at time.Time
	fn func()
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

// OnRankDeath installs fn (may be nil) to run on this rank's goroutine
// exactly once per rank declared dead. Call it before the job issues
// traffic, on the SPMD goroutine.
func (c *WireConduit) OnRankDeath(fn func(rank int)) { c.onRankDeath = fn }

// After schedules fn to run on this rank's goroutine once d has
// elapsed, swept by the resilience tick (so resolution is the tick
// period, not a wall-clock timer). The retry layer schedules backoffs
// and attempt re-issues here.
func (c *WireConduit) After(d time.Duration, fn func()) {
	c.timers = append(c.timers, wireTimer{at: time.Now().Add(d), fn: fn})
}

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
			c.complete(x, nil)
		default:
			c.complete(x, derr)
		}
	}
	if c.onRankDeath != nil {
		c.onRankDeath(rank)
	}
}

func (c *WireConduit) onPing(m transport.Message) {
	c.reply(m, nil)
}
