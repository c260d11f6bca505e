package core

import "upcxx/internal/gasnet"

// Runtime-services API: the narrow surface sibling substrates build on,
// playing the role direct GASNet calls play for libraries layered over
// real UPC++ (the multidimensional array library, the MPI baseline).
// Application code should prefer the high-level operations.

// AM injects an active message executing fn on the target rank's
// goroutine, charging standard AM costs for a payload of the given size.
// fn must not block (it may send further messages).
func (r *Rank) AM(target, bytes int, fn func(tgt *Rank)) {
	r.noWire("AM", target)
	job := r.job
	r.ep.Send(target, bytes, func(tep *gasnet.Endpoint) {
		fn(job.ranks[tep.Rank])
	})
}

// AMAt injects an active message with an explicit modeled arrival time,
// for substrates that account their own protocol costs (e.g. the
// two-sided MPI baseline's eager/rendezvous protocols).
func (r *Rank) AMAt(target int, arrival float64, bytes int, fn func(tgt *Rank)) {
	r.noWire("AMAt", target)
	job := r.job
	r.ep.SendAt(target, arrival, bytes, func(tep *gasnet.Endpoint) {
		fn(job.ranks[tep.Rank])
	})
}

// WaitUntil services incoming tasks until pred() is true — and, on a
// wire job, conduit traffic too, with the aggregation layer flushed
// first (so a buffered request whose reply satisfies pred cannot
// deadlock the wait). In-process, any cross-rank state change that
// makes pred true must be followed by a WakeAt (or an ordinary
// message) to this rank, or the wait may not terminate.
func (r *Rank) WaitUntil(pred func() bool) { r.waitProgress(pred) }

// WakeAt sends a no-op message unblocking a WaitUntil on the target at
// the given modeled arrival time.
func (r *Rank) WakeAt(target int, arrival float64) { r.ep.Wake(target, arrival) }

// ExternalWaker returns a function that, called from another goroutine,
// makes this rank's blocked WaitUntil re-evaluate its predicate
// promptly. It is the handoff seam between non-SPMD threads (an HTTP
// server's handler goroutines, a signal handler) and the rank's
// progress loop: publish work where the predicate can see it, then call
// the waker. The rank's own goroutine has no use for it: it
// re-evaluates the predicate after every message anyway. The waker
// never blocks — a wake that finds one already pending coalesces into
// it, and one that meets a full inbox hands its message to a goroutine
// — so any number of callers may use it, whether the rank is parked on
// its inbox or in a read of a peer's socket. On backends without the
// wakeup extension (ProcConduit) it returns a harmless no-op — those
// backends' waits are driven by modeled messages (WakeAt) instead.
func (r *Rank) ExternalWaker() func() {
	if w := r.caps.Waker; w != nil {
		return w.Wake
	}
	return func() {}
}

// Now returns the rank's current virtual time in nanoseconds (alias of
// Clock, reading more naturally in timing expressions).
func (r *Rank) Now() float64 { return r.ep.Clock.Now() }

// AdvanceTo moves this rank's virtual clock forward to t (never
// backwards).
func (r *Rank) AdvanceTo(t float64) { r.ep.Clock.AdvanceTo(t) }

// Completion services, for substrates implementing their own protocols
// that complete into any completion object (event, promise, Onto set) —
// the ndarray library's asynchronous ghost copies use these.

// RegisterWith records n more pending operations with the completion
// object (nil-safe).
func RegisterWith(c Completer, me *Rank, n int) {
	if c = normCompleter(c); c != nil {
		c.compRegister(me, n)
	}
}

// CompleteAt credits one completion at modeled time t; sig is the rank
// whose goroutine delivers it (nil-safe).
func CompleteAt(c Completer, t float64, sig *Rank) {
	if c = normCompleter(c); c != nil {
		c.compComplete(t, sig)
	}
}

// CompleteNow registers and immediately completes one operation — the
// no-op-operation case (nil-safe).
func CompleteNow(c Completer, me *Rank) {
	if c = normCompleter(c); c != nil {
		c.compRegister(me, 1)
		c.compComplete(me.Now(), me)
	}
}
