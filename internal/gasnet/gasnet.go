// Package gasnet is the communication substrate of upcxx-go, playing the
// role GASNet plays under real UPC++ (paper Fig 2): active messages, a
// per-rank progress engine, barriers and collective rendezvous.
//
// Each rank of a job owns one Endpoint, serviced by that rank's goroutine.
// An active message is a closure executed on the *target's* goroutine when
// the target polls its inbox — either explicitly (Poll / Advance) or
// implicitly while blocked in any synchronizing operation (Barrier,
// WaitFor, a full Send). This mirrors GASNet semantics, where AM handlers
// run inside the polling call of the target process.
//
// Two invariants keep the system deadlock-free:
//
//  1. AM handlers never block. Anything that must wait (lock grants,
//     future replies) is expressed as a later message back to the waiter.
//  2. Any cross-rank state change that can unblock a waiter is followed by
//     a wake message to that waiter's inbox, so blocked receives always
//     terminate.
//
// Virtual time: every message carries its modeled arrival time; executing
// a task first advances the target clock to the arrival (never backwards).
// See DESIGN.md §4.
package gasnet

import (
	"sync"

	"upcxx/internal/pad"
	"upcxx/internal/sim"
)

// InboxCap is the per-rank inbox depth. Senders finding a full inbox
// service their own inbox while waiting (the GASNet "poll while stalled"
// rule), so a modest depth bounds memory at 32K ranks without deadlock.
const InboxCap = 64

// Task is one active message: a closure plus modeling metadata.
type Task struct {
	// Fn runs on the target rank's goroutine; ep is the target endpoint.
	Fn func(ep *Endpoint)
	// Arrival is the virtual time at which the message reaches the target.
	Arrival float64
	// From is the sending rank.
	From int
	// Bytes is the modeled payload size.
	Bytes int
}

// Stats aggregates communication counters for one endpoint. They are
// plain words: only the goroutine driving the rank writes them (in
// Concurrent thread mode, whichever goroutine holds the rank lock), and
// they are read once the job has joined.
type Stats struct {
	AMs      int64
	Tasks    int64
	Puts     int64
	Gets     int64
	PutBytes int64
	GetBytes int64
	Barriers int64
}

// Engine owns the endpoints, barrier and collective state of one job.
type Engine struct {
	N     int
	Model *sim.Model
	eps   []*Endpoint
	bar   *barrier
	coll  *collective
	team  *teamColl
}

// New creates an engine with n endpoints sharing the given cost model.
func New(model *sim.Model, n int) *Engine {
	g := &Engine{
		N:     n,
		Model: model,
		bar:   newBarrier(n),
		coll:  &collective{},
		team:  &teamColl{slots: make(map[uint64]*teamSlot)},
	}
	g.eps = make([]*Endpoint, n)
	for i := range g.eps {
		g.eps[i] = &Endpoint{
			Rank:  i,
			eng:   g,
			Inbox: make(chan Task, InboxCap),
		}
	}
	return g
}

// Endpoint returns rank i's endpoint.
func (g *Engine) Endpoint(i int) *Endpoint { return g.eps[i] }

// Endpoint is one rank's attachment to the engine. Rank, eng and Inbox
// are read by every sender; Clock and Stats are written by the owning
// rank on every operation, so they sit in a pad bracket of their own.
type Endpoint struct {
	Rank  int
	eng   *Engine
	Inbox chan Task

	_     pad.Line
	Clock sim.Clock
	Stats Stats
	_     pad.Line
}

// N returns the job size.
func (e *Endpoint) N() int { return e.eng.N }

// Send injects an active message of the given modeled payload size to the
// target rank, charging send overhead to the local clock. If the target
// inbox is full the sender services its own inbox while waiting.
func (e *Endpoint) Send(to int, bytes int, fn func(ep *Endpoint)) {
	mo := e.eng.Model
	t0 := e.Clock.Now()
	e.Clock.Advance(mo.AMSendCost(bytes)) // sender occupancy
	arrival := mo.AMArrival(t0, e.Rank, to, bytes)
	e.SendAt(to, arrival, bytes, fn)
}

// SendAt injects a message with an explicit arrival time, for callers
// (e.g. the MPI baseline) that model their own protocol costs.
func (e *Endpoint) SendAt(to int, arrival float64, bytes int, fn func(ep *Endpoint)) {
	e.Stats.AMs++
	t := Task{Fn: fn, Arrival: arrival, From: e.Rank, Bytes: bytes}
	if to == e.Rank {
		// Loopback: execute immediately on our own goroutine.
		e.exec(t)
		return
	}
	tgt := e.eng.eps[to]
	for {
		select {
		case tgt.Inbox <- t:
			return
		case mine := <-e.Inbox:
			e.exec(mine)
		}
	}
}

func (e *Endpoint) exec(t Task) {
	e.Clock.AdvanceTo(t.Arrival)
	e.Stats.Tasks++
	t.Fn(e)
}

// Poll drains all currently queued tasks without blocking and reports how
// many ran. This is the paper's advance().
func (e *Endpoint) Poll() int {
	n := 0
	for {
		select {
		case t := <-e.Inbox:
			e.exec(t)
			n++
		default:
			return n
		}
	}
}

// WaitFor services the inbox until pred() is true. Any state transition
// that can make pred true must be accompanied by a wake message to this
// endpoint (invariant 2 above); Wake provides a no-op message for that.
func (e *Endpoint) WaitFor(pred func() bool) {
	for !pred() {
		e.exec(<-e.Inbox)
	}
}

// Wake sends a no-op message that unblocks a WaitFor on the target; the
// arrival time models the notification's network travel.
func (e *Endpoint) Wake(to int, arrival float64) {
	e.SendAt(to, arrival, 0, func(*Endpoint) {})
}

// ---- Barrier ----

type barGen struct {
	ch        chan struct{}
	releaseNs float64
}

type barrier struct {
	mu    sync.Mutex
	n     int
	count int
	maxNs float64
	cur   *barGen
}

func newBarrier(n int) *barrier {
	return &barrier{n: n, cur: &barGen{ch: make(chan struct{})}}
}

// Barrier synchronizes all ranks. On release every clock advances to
// max(entry clocks) + the modeled dissemination-barrier cost. Tasks are
// serviced while waiting, matching GASNet's progress guarantee.
func (e *Endpoint) Barrier() {
	e.Stats.Barriers++
	b := e.eng.bar
	b.mu.Lock()
	gen := b.cur
	if t := e.Clock.Now(); t > b.maxNs {
		b.maxNs = t
	}
	b.count++
	if b.count == b.n {
		gen.releaseNs = b.maxNs + e.eng.Model.BarrierCost()
		b.count = 0
		b.maxNs = 0
		b.cur = &barGen{ch: make(chan struct{})}
		b.mu.Unlock()
		close(gen.ch)
	} else {
		b.mu.Unlock()
		for done := false; !done; {
			select {
			case <-gen.ch:
				done = true
			case t := <-e.Inbox:
				e.exec(t)
			}
		}
	}
	e.Clock.AdvanceTo(gen.releaseNs)
}

// ---- Collective rendezvous ----

type collective struct {
	mu       sync.Mutex
	slot     any
	leavers  int
	finished bool
}

// Collective performs an allgather-style rendezvous. alloc builds the
// shared result (called once per collective, by the first arriver); put
// deposits this rank's contribution into it; finish (optional) runs
// exactly once, after every contribution is deposited and before any
// rank returns — the hook reductions use to fold in one rendezvous. The
// returned value is shared read-only by all ranks and remains valid
// after return (a fresh one is allocated per collective). elemBytes
// sizes the cost model's allgather charge.
//
// Sharing one result slice instead of copying per rank is what keeps
// 32K-rank metadata exchanges (e.g. shared_array base-offset directories)
// linear instead of quadratic in memory.
func (e *Endpoint) Collective(alloc func(n int) any, put func(slot any), finish func(slot any), elemBytes int) any {
	c := e.eng.coll
	c.mu.Lock()
	if c.slot == nil {
		c.slot = alloc(e.eng.N)
	}
	slot := c.slot
	c.mu.Unlock()

	put(slot)
	e.Barrier() // all contributions deposited

	if finish != nil {
		c.mu.Lock()
		if !c.finished {
			finish(slot)
			c.finished = true
		}
		c.mu.Unlock()
	}

	mo := e.eng.Model
	cost := float64(mo.CollStages())*mo.CollStageCost(elemBytes) +
		float64(e.eng.N-1)*mo.WireNs(elemBytes)
	e.Clock.Advance(cost)

	c.mu.Lock()
	c.leavers++
	if c.leavers == e.eng.N {
		c.slot = nil
		c.leavers = 0
		c.finished = false
	}
	c.mu.Unlock()
	e.Barrier() // nobody may start the next collective before all leave
	return slot
}

// ---- Team (subset) collective rendezvous ----

// teamColl holds the in-flight subset collectives, keyed by the
// caller-supplied collective key. Unlike the world-wide Collective —
// one generation at a time, fenced by barriers — independent teams may
// rendezvous concurrently, so each key gets its own slot and the slot
// is retired when its last member leaves.
type teamColl struct {
	mu    sync.Mutex
	slots map[uint64]*teamSlot
}

type teamSlot struct {
	parts     [][]byte
	count     int
	leavers   int
	maxNs     float64
	releaseNs float64
	done      chan struct{}
}

// TeamGather is the engine's subset allgather: the members of one team
// (size of them, this rank depositing at team rank idx) rendezvous
// under key, and every member returns the shared contribution table
// indexed by team rank. Tasks are serviced while waiting, and all
// members leave at the same virtual time (the max of their entry
// clocks); the caller charges the tree-stage costs on top. Keys must
// be unique per collective — the core derives them from team id and a
// per-team sequence number.
func (e *Endpoint) TeamGather(key uint64, idx, size int, contrib []byte) [][]byte {
	tc := e.eng.team
	tc.mu.Lock()
	s := tc.slots[key]
	if s == nil {
		s = &teamSlot{parts: make([][]byte, size), done: make(chan struct{})}
		tc.slots[key] = s
	}
	if len(s.parts) != size {
		tc.mu.Unlock()
		panic("gasnet: TeamGather members disagree on team size")
	}
	s.parts[idx] = contrib
	if t := e.Clock.Now(); t > s.maxNs {
		s.maxNs = t
	}
	s.count++
	if s.count == size {
		s.releaseNs = s.maxNs
		close(s.done)
	}
	tc.mu.Unlock()

	for done := false; !done; {
		select {
		case <-s.done:
			done = true
		case t := <-e.Inbox:
			e.exec(t)
		}
	}
	e.Clock.AdvanceTo(s.releaseNs)

	tc.mu.Lock()
	s.leavers++
	if s.leavers == size {
		delete(tc.slots, key)
	}
	tc.mu.Unlock()
	return s.parts
}
