package core

import (
	"fmt"
	"sync"

	"upcxx/internal/obs"
)

// Event synchronizes individual non-blocking operations and async tasks,
// like the paper's event type (§III-D, §III-G): async_copy and async
// calls may register with an event; the event fires when every registered
// operation has signaled; ranks may Wait on it, and further asyncs may be
// launched when it fires (AsyncAfter).
//
// An Event with no registrations is considered fired, so Wait on a fresh
// or fully-drained event returns immediately — this makes events reusable
// across iterations, the common LULESH-style pattern. A completion with
// nothing registered panics. A Promise counts with an Event, and the
// rank's implicit copy handle is one.
type Event struct {
	mu      sync.Mutex
	pending int
	maxDone float64 // latest completion time among signaled operations
	waiters []eventWaiter
	after   []func(fireTime float64, from *Rank)
}

// eventWaiter is one blocked Wait. woken records that the current
// firing already sent this waiter its wake message; it is reset when
// the event un-fires (a new registration while drained), so a
// re-firing wakes the waiter again without charging duplicate modeled
// wake latency in the common single-fire case.
type eventWaiter struct {
	r     *Rank
	woken bool
}

// NewEvent returns an event ready for registrations.
func NewEvent() *Event { return &Event{} }

// register records n more operations that must signal before the event
// fires, and returns how many were pending before. Registering on a
// drained event un-fires it: any still-blocked waiters re-arm so the
// next firing wakes them again.
func (ev *Event) register(n int) (was int) {
	ev.mu.Lock()
	was = ev.pending
	if was == 0 && n > 0 {
		for i := range ev.waiters {
			ev.waiters[i].woken = false
		}
	}
	ev.pending += n
	ev.mu.Unlock()
	return was
}

// signal marks one registered operation complete at virtual time done
// and reports whether that fired the event, and at what time. from is
// the rank on whose goroutine the signal executes; it is used to route
// wakeups and to inject deferred async_after launches. A completion
// with nothing registered panics: the count must never go negative.
//
// Waiters stay registered until their Wait returns, and each firing
// wakes every not-yet-woken waiter: a blocked waiter's progress loop
// may reentrantly execute work that registers new operations with this
// same event (an AM handler issuing aggregated replies, say),
// un-firing it after the wake was already consumed — so the next fire
// must wake the waiter again, or it sleeps forever on an event that is
// done. The woken flag (re-armed by register when the event un-fires)
// keeps the common single-fire case at exactly one modeled wake.
func (ev *Event) signal(done float64, from *Rank) (fired bool, fireTime float64) {
	ev.mu.Lock()
	if ev.pending <= 0 {
		ev.mu.Unlock()
		panic("upcxx: more completions than registrations (an operation " +
			"completed twice, or a Promise finalized twice)")
	}
	ev.pending--
	if done > ev.maxDone {
		ev.maxDone = done
	}
	fired = ev.pending == 0
	var wake []*Rank
	var after []func(float64, *Rank)
	if fired {
		for i := range ev.waiters {
			if !ev.waiters[i].woken {
				ev.waiters[i].woken = true
				wake = append(wake, ev.waiters[i].r)
			}
		}
		after = ev.after
		ev.after = nil
		fireTime = ev.maxDone
	}
	ev.mu.Unlock()
	if !fired {
		return false, 0
	}
	for _, w := range wake {
		from.ep.Wake(w.id, from.job.model.Arrival(fireTime, from.id, w.id, 0))
	}
	for _, f := range after {
		f(fireTime, from)
	}
	return true, fireTime
}

// done reports whether the event has fired (no pending registrations).
func (ev *Event) done() (bool, float64) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.pending == 0, ev.maxDone
}

// Test returns true if the event has fired, servicing progress once
// (paper: test() polls the runtime).
func (ev *Event) Test(me *Rank) bool {
	me.Advance()
	ok, t := ev.done()
	if ok {
		me.ep.Clock.AdvanceTo(t)
	}
	return ok
}

// Wait blocks the calling rank until the event fires, servicing async
// tasks (and, on a wire job, conduit traffic and aggregation flushes)
// while waiting, and advances the rank's clock to the fire time.
func (ev *Event) Wait(me *Rank) {
	ev.mu.Lock()
	if ev.pending == 0 {
		t := ev.maxDone
		ev.mu.Unlock()
		me.ep.Clock.AdvanceTo(t)
		return
	}
	ev.waiters = append(ev.waiters, eventWaiter{r: me})
	ev.mu.Unlock()
	me.ring.Begin(obs.KEvWait, -1, 0)
	me.waitProgress(func() bool {
		ok, _ := ev.done()
		return ok
	})
	me.ring.End(obs.KEvWait)
	// Unregister (signal leaves waiters in place so later fires can
	// re-wake them; see signal). Any wake already in flight for us is a
	// no-op message, drained by ordinary progress.
	ev.mu.Lock()
	for i := range ev.waiters {
		if ev.waiters[i].r == me {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			break
		}
	}
	ev.mu.Unlock()
	_, t := ev.done()
	me.ep.Clock.AdvanceTo(t)
}

// whenFired runs f(fireTime, from) when the event fires — from is the
// rank whose goroutine delivers the final signal — or immediately with
// from=me if the event has already fired. Used by AsyncAfter.
func (ev *Event) whenFired(me *Rank, f func(fireTime float64, from *Rank)) {
	ev.mu.Lock()
	if ev.pending == 0 {
		t := ev.maxDone
		ev.mu.Unlock()
		f(t, me)
		return
	}
	ev.after = append(ev.after, f)
	ev.mu.Unlock()
}

// Copy performs a blocking one-sided bulk transfer of count elements from
// src to dst (the paper's copy(src, dst, count)); buffers are contiguous.
// Any combination of local and remote endpoints is allowed; a fully remote
// pair is staged through the initiator.
func Copy[T any](me *Rank, src, dst GlobalPtr[T], count int) {
	me.enter()
	defer me.exit()
	if count < 0 {
		panic(fmt.Sprintf("upcxx: Copy with negative count %d", count))
	}
	if count == 0 {
		return
	}
	bytes := count * int(sizeOf[T]())
	srcR, dstR := int(src.rank), int(dst.rank)
	if srcR != me.id { // a get, or the get half of a third-party copy
		me.ep.Stats.Gets++
		me.ep.Stats.GetBytes += int64(bytes)
	}
	if dstR != me.id { // a put, or the put half
		me.ep.Stats.Puts++
		me.ep.Stats.PutBytes += int64(bytes)
	}
	me.ep.Clock.Advance(me.job.model.CopyCost(me.id, srcR, dstR, bytes))
	// The bytes stage through a private buffer so that at most one
	// segment lock is held at a time (no lock-ordering deadlocks, and
	// overlapping same-segment ranges behave like memmove): a get off
	// the source followed by a put to the destination, both initiated
	// here.
	me.aggPreBlock()
	tmp := make([]byte, bytes)
	me.mustCd(me.cd.Get(int(src.rank), src.Offset(), tmp))
	me.mustCd(me.cd.Put(int(dst.rank), dst.Offset(), tmp))
}

// AsyncCopy initiates a non-blocking one-sided bulk transfer (the paper's
// async_copy). If done is non-nil — an *Event (the legacy handle), a
// *Promise, or an Onto(...) combination — the operation registers with
// it and completes into it; otherwise it registers with the rank's
// implicit handle, which AsyncCopyFence / Fence wait on. The transfer
// is CopyAsync's: on the wire both legs pipeline through progress
// dispatch, so neither segment may be touched until completion;
// in-process and to a co-located rank it completes inside the call at
// the modeled finish time. Outstanding non-blocking operations are
// unordered with respect to each other.
func AsyncCopy[T any](me *Rank, src, dst GlobalPtr[T], count int, done Completer) {
	me.issueInto(done, func(ok func(t float64), fail func(err error, t float64)) {
		copyXfer(me, nil, src, dst, count, ok, fail)
	})
}

// issueInto runs one transfer body under the rank lock, registered with
// done — the rank's implicit handle when nil — and credits done when the
// transfer completes. A completion inside the call is credited after the
// lock is released, so what it fires (AsyncAfter launches, promise
// continuations) may re-enter the runtime in Concurrent mode. A failed
// transfer aborts the rank with the conduit's cause, from the progress
// call that observes the failure.
func (r *Rank) issueInto(done Completer, xfer func(ok func(t float64), fail func(err error, t float64))) {
	if done = normCompleter(done); done == nil {
		done = &r.implicit
	}
	r.enter()
	done.compRegister(r, 1)
	issuing, early, at := true, false, 0.0
	xfer(func(t float64) {
		if issuing {
			early, at = true, t
			return
		}
		done.compComplete(t, r)
	}, func(err error, _ float64) { r.mustCd(err) })
	issuing = false
	r.exit()
	if early {
		done.compComplete(at, r)
	}
}

// AsyncCopyFence completes all outstanding implicit-handle async copies
// issued by this rank (the paper's async_copy_fence: "handle-less"
// non-blocking communication, §V-E).
func AsyncCopyFence(me *Rank) { me.implicit.Wait(me) }

// Fence orders this rank's outstanding shared-memory operations (the
// upc_fence equivalent): it completes all implicit non-blocking operations
// and services progress once.
func Fence(me *Rank) {
	AsyncCopyFence(me)
	me.Advance()
}

// ReadSlice copies len(dst) elements from shared memory at src into the
// local slice dst; a convenience over Copy for staging between private
// and shared memory.
func ReadSlice[T any](me *Rank, src GlobalPtr[T], dst []T) {
	me.enter()
	defer me.exit()
	bytes := len(dst) * int(sizeOf[T]())
	if bytes == 0 {
		return
	}
	me.ep.Stats.Gets++
	me.ep.Stats.GetBytes += int64(bytes)
	me.ep.Clock.Advance(me.job.model.GetCost(me.id, int(src.rank), bytes))
	me.aggPreBlock()
	me.mustCd(me.cd.Get(int(src.rank), src.Offset(), sliceBytes(dst)))
}

// WriteSlice copies the local slice src into shared memory at dst.
func WriteSlice[T any](me *Rank, dst GlobalPtr[T], src []T) {
	me.enter()
	defer me.exit()
	bytes := len(src) * int(sizeOf[T]())
	if bytes == 0 {
		return
	}
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(bytes)
	me.ep.Clock.Advance(me.job.model.PutCost(me.id, int(dst.rank), bytes))
	me.aggPreBlock()
	me.mustCd(me.cd.Put(int(dst.rank), dst.Offset(), sliceBytes(src)))
}

// WriteSliceAsync is the non-blocking WriteSlice: the transfer is
// WriteSliceFuture's, completing into done — any completion object — or
// the implicit handle when done is nil. src must stay untouched until
// completion: on the wire its bytes may still be in flight.
func WriteSliceAsync[T any](me *Rank, dst GlobalPtr[T], src []T, done Completer) {
	me.issueInto(done, func(ok func(t float64), fail func(err error, t float64)) {
		writeSliceXfer(me, nil, dst, src, ok, fail)
	})
}
