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
// across iterations, the common LULESH-style pattern.
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

// register records one more operation that must signal before the event
// fires. Registering on a drained event un-fires it: any still-blocked
// waiters re-arm so the next firing wakes them again.
func (ev *Event) register(n int) {
	ev.mu.Lock()
	if ev.pending == 0 && n > 0 {
		for i := range ev.waiters {
			ev.waiters[i].woken = false
		}
	}
	ev.pending += n
	ev.mu.Unlock()
}

// signal marks one registered operation complete at virtual time done.
// from is the rank on whose goroutine the signal executes; it is used to
// route wakeups and to inject deferred async_after launches.
//
// Waiters stay registered until their Wait returns, and each firing
// wakes every not-yet-woken waiter: a blocked waiter's progress loop
// may reentrantly execute work that registers new operations with this
// same event (an AM handler issuing aggregated replies, say),
// un-firing it after the wake was already consumed — so the next fire
// must wake the waiter again, or it sleeps forever on an event that is
// done. The woken flag (re-armed by register when the event un-fires)
// keeps the common single-fire case at exactly one modeled wake.
func (ev *Event) signal(done float64, from *Rank) {
	ev.mu.Lock()
	ev.pending--
	if done > ev.maxDone {
		ev.maxDone = done
	}
	fired := ev.pending == 0
	var wake []*Rank
	var after []func(float64, *Rank)
	var fireTime float64
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
		return
	}
	for _, w := range wake {
		from.ep.Wake(w.id, fireTime+from.job.model.Lat(from.id, w.id))
	}
	for _, f := range after {
		f(fireTime, from)
	}
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
	mo := me.job.model

	switch {
	case srcR == me.id && dstR == me.id:
		me.ep.Clock.Advance(mo.GetCost(me.id, me.id, bytes))
	case dstR == me.id: // remote get
		me.ep.Stats.Gets++
		me.ep.Stats.GetBytes += int64(bytes)
		me.ep.Clock.Advance(mo.GetCost(me.id, srcR, bytes))
	case srcR == me.id: // remote put
		me.ep.Stats.Puts++
		me.ep.Stats.PutBytes += int64(bytes)
		me.ep.Clock.Advance(mo.PutCost(me.id, dstR, bytes))
	default: // third party: get then put, staged through the initiator
		me.ep.Stats.Gets++
		me.ep.Stats.Puts++
		me.ep.Stats.GetBytes += int64(bytes)
		me.ep.Stats.PutBytes += int64(bytes)
		me.ep.Clock.Advance(mo.GetCost(me.id, srcR, bytes) + mo.PutCost(me.id, dstR, bytes))
	}
	moveBytes(me, src, dst, bytes)
}

// moveBytes performs the actual data movement between segments through
// the conduit's one-sided data plane, staged through a private buffer so
// that at most one segment lock is held at a time (no lock-ordering
// deadlocks, and overlapping same-segment ranges behave like memmove).
// On a wire conduit this is a get off the source followed by a put to
// the destination, both initiated here.
func moveBytes[T any](me *Rank, src, dst GlobalPtr[T], bytes int) {
	me.aggPreBlock()
	tmp := make([]byte, bytes)
	me.mustCd(me.cd.Get(int(src.rank), src.Offset(), tmp))
	me.mustCd(me.cd.Put(int(dst.rank), dst.Offset(), tmp))
}

// AsyncCopy initiates a non-blocking one-sided bulk transfer (the paper's
// async_copy). If done is non-nil — an *Event (the legacy handle), a
// *Promise, or an Onto(...) combination — the operation registers with
// it and completes into it; otherwise completion attaches to the rank's
// implicit handle set, synchronized by AsyncCopyFence / Fence. The data
// movement itself is performed eagerly (so program results are ready at
// synchronization); the cost model accounts initiation now and transfer
// completion at the modeled finish time, which is what enables
// communication/computation overlap in virtual time. For a future-
// returning variant with real wire overlap see CopyAsync.
func AsyncCopy[T any](me *Rank, src, dst GlobalPtr[T], count int, done Completer) {
	me.enter()
	defer me.exit()
	done = normCompleter(done)
	if count <= 0 {
		completeNow(done, me)
		return
	}
	bytes := count * int(sizeOf[T]())
	mo := me.job.model
	peer := int(src.rank)
	if peer == me.id {
		peer = int(dst.rank)
	}
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(bytes)
	me.ep.Clock.Advance(mo.NBInitCost())
	completion := me.Clock() + mo.NBCompleteCost(me.id, peer, bytes)

	if done != nil {
		done.compRegister(me, 1)
	}
	moveBytes(me, src, dst, bytes)

	if done != nil {
		done.compComplete(completion, me)
	} else {
		if completion > me.implicitMax {
			me.implicitMax = completion
		}
		me.implicitN++
	}
}

// AsyncCopyFence completes all outstanding implicit-handle async copies
// issued by this rank (the paper's async_copy_fence: "handle-less"
// non-blocking communication, §V-E).
func AsyncCopyFence(me *Rank) {
	me.enter()
	defer me.exit()
	me.ep.Clock.AdvanceTo(me.implicitMax)
	me.implicitMax = 0
	me.implicitN = 0
}

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

// WriteSliceAsync is the non-blocking WriteSlice: initiation is charged
// now, completion attaches to done — any completion object — or the
// implicit set when done is nil.
func WriteSliceAsync[T any](me *Rank, dst GlobalPtr[T], src []T, done Completer) {
	me.enter()
	done = normCompleter(done)
	bytes := len(src) * int(sizeOf[T]())
	mo := me.job.model
	me.ep.Stats.Puts++
	me.ep.Stats.PutBytes += int64(bytes)
	me.ep.Clock.Advance(mo.NBInitCost())
	completion := me.Clock() + mo.NBCompleteCost(me.id, int(dst.rank), bytes)
	if done != nil {
		done.compRegister(me, 1)
	}
	me.aggPreBlock()
	me.mustCd(me.cd.Put(int(dst.rank), dst.Offset(), sliceBytes(src)))
	me.exit()
	if done != nil {
		done.compComplete(completion, me)
	} else {
		if completion > me.implicitMax {
			me.implicitMax = completion
		}
		me.implicitN++
	}
}
