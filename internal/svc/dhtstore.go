package svc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"upcxx/internal/core"
	"upcxx/internal/dht"
)

// DHTStore is the outbound adapter binding the Store port to the
// replicated DHT. It is a single-consumer operation queue across the
// runtime's hard concurrency boundary:
//
//   - HTTP handler goroutines call Put/Get/`*Batch`: they enqueue an op
//     under the mutex, nudge the rank's progress loop through the
//     conduit's waker extension, and block on the op's done channel.
//   - The rank's SPMD goroutine runs Serve: it parks in WaitUntil —
//     servicing DHT traffic, heartbeats and aggregation the whole time
//     — takes due ops, issues them against the table (inserts complete
//     into promises, lookups settle through OnDone), flushes the
//     aggregator once per batch so concurrent requests coalesce into
//     shared frames, and settles each op back to its waiting client.
//
// Typed failures retry with backoff on the serve loop: a rank death
// re-routes to the surviving replicas on the next attempt (the failover
// policy), and only an exhausted budget surfaces to the client as
// ErrUnavailable.
type DHTStore struct {
	cfg   StoreConfig
	retry core.RetryPolicy // failover; tests may shorten or stretch it

	mu     sync.Mutex
	queue  []*op
	gated  int // queued ops carrying a backoff gate (notBefore set)
	wake   func()
	closed bool // serve loop has exited; no op can ever settle again

	// queued mirrors len(queue), written under mu: the serve loop's
	// predicate, evaluated several times per request, reads it and
	// returns before the lock while nothing is queued.
	queued atomic.Int64

	ready    atomic.Bool
	stopping atomic.Bool

	// inflight counts issued-but-unsettled ops. Touched only on the
	// SPMD goroutine (issue and settle both run there).
	inflight int

	// Counters, read by the metrics plane from other goroutines.
	puts, gets, retries, failures atomic.Int64
}

// failover is the store's retry policy for typed runtime failures:
// 3 attempts, 1 ms backoff doubling each time. Unlike the runtime
// default it retries every typed failure, core.ErrRankDead included:
// the DHT re-routes around dead replicas, so the next attempt lands on
// the survivors.
var failover = core.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}

// StoreConfig tunes the adapter.
type StoreConfig struct {
	// VerifyKeys routes string keys through dht.StrKeys, panicking on
	// a 64-bit hash collision instead of silently aliasing two keys.
	// Costs one map entry per distinct key; tests and verifying runs
	// set it.
	VerifyKeys bool
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
)

// op is one client operation crossing the boundary.
type op struct {
	kind opKind
	key  string
	val  uint64 // put payload

	out  GetResult // settled outcome (Err doubles for puts)
	done chan struct{}

	attempts  int
	notBefore time.Time // backoff gate; zero = due immediately
}

// NewDHTStore returns an unbound store; it reports Ready only once a
// rank's Serve loop has attached.
func NewDHTStore(cfg StoreConfig) *DHTStore {
	return &DHTStore{cfg: cfg, retry: failover}
}

// ---- Client side (any goroutine) ----

// Put implements Store.Put.
func (st *DHTStore) Put(ctx context.Context, key string, val uint64) error {
	o := &op{kind: opPut, key: key, val: val, done: make(chan struct{})}
	if err := st.enqueue(o); err != nil {
		return err
	}
	select {
	case <-o.done:
		return o.out.Err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Get implements Store.Get.
func (st *DHTStore) Get(ctx context.Context, key string) (uint64, bool, error) {
	o := &op{kind: opGet, key: key, done: make(chan struct{})}
	if err := st.enqueue(o); err != nil {
		return 0, false, err
	}
	select {
	case <-o.done:
		return o.out.Val, o.out.Found, o.out.Err
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
}

// PutBatch implements Store.PutBatch: all pairs enqueue under one lock
// and one wake, so the serve loop issues them as one aggregated batch.
func (st *DHTStore) PutBatch(ctx context.Context, keys []string, vals []uint64) []error {
	ops := make([]*op, len(keys))
	for i := range keys {
		ops[i] = &op{kind: opPut, key: keys[i], val: vals[i], done: make(chan struct{})}
	}
	errs := make([]error, len(keys))
	if err := st.enqueue(ops...); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for i, o := range ops {
		select {
		case <-o.done:
			errs[i] = o.out.Err
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
	}
	return errs
}

// GetBatch implements Store.GetBatch.
func (st *DHTStore) GetBatch(ctx context.Context, keys []string) []GetResult {
	ops := make([]*op, len(keys))
	for i := range keys {
		ops[i] = &op{kind: opGet, key: keys[i], done: make(chan struct{})}
	}
	res := make([]GetResult, len(keys))
	if err := st.enqueue(ops...); err != nil {
		for i := range res {
			res[i] = GetResult{Err: err}
		}
		return res
	}
	for i, o := range ops {
		select {
		case <-o.done:
			res[i] = o.out
		case <-ctx.Done():
			res[i] = GetResult{Err: ctx.Err()}
		}
	}
	return res
}

// Ready implements Store.Ready.
func (st *DHTStore) Ready() bool { return st.ready.Load() }

// Stop asks the serve loop to drain: issue and settle everything
// already queued, refuse new work, then return. Safe from any
// goroutine; returns immediately (Serve's return is the completion
// signal — the gateway's SPMD body continues past it into the
// departure sequence).
func (st *DHTStore) Stop() {
	st.stopping.Store(true)
	st.mu.Lock()
	wake := st.wake
	st.mu.Unlock()
	if wake != nil {
		wake()
	}
}

// enqueue hands ops to the serve loop under one lock and one wake.
func (st *DHTStore) enqueue(ops ...*op) error {
	if st.stopping.Load() {
		return ErrDraining
	}
	st.mu.Lock()
	// Re-check under the lock: the serve loop's exit decision (closed)
	// is taken under this mutex, so an op appended here is guaranteed
	// to be settled before the loop returns.
	if st.closed {
		st.mu.Unlock()
		return ErrDraining
	}
	st.queue = append(st.queue, ops...)
	st.queued.Store(int64(len(st.queue)))
	wake := st.wake
	st.mu.Unlock()
	if wake != nil {
		wake()
	}
	return nil
}

// ---- Serve side (the rank's SPMD goroutine) ----

// Serve binds the store to the rank and its table and runs the serve
// loop until Stop has been called AND every accepted op has settled.
// The rank must be on a resilient wire job: the loop parks in
// WaitUntil and relies on the conduit's waker extension plus the
// resilient tick to observe new work and due backoffs promptly.
func (st *DHTStore) Serve(me *core.Rank, tbl *dht.Table) {
	var keys *dht.StrKeys
	if st.cfg.VerifyKeys {
		keys = dht.NewStrKeys()
	}
	hash := dht.StrKey
	if keys != nil {
		hash = keys.Key
	}

	st.mu.Lock()
	st.wake = me.ExternalWaker()
	st.mu.Unlock()
	st.ready.Store(true)

	for {
		me.WaitUntil(func() bool {
			if st.dueNow() {
				return true
			}
			return st.stopping.Load() && st.idle()
		})
		batch := st.take()
		for _, o := range batch {
			st.issue(me, tbl, hash, o)
		}
		if len(batch) > 0 {
			core.AggFlush(me)
		}
		if st.stopping.Load() && st.tryClose() {
			break
		}
	}
	// Every op is settled; drain the aggregation plane (read-repair
	// re-inserts travel with nil completers) before the rank departs.
	core.AggDrain(me)
	st.ready.Store(false)
}

// dueNow reports whether any queued op's backoff gate has passed. It
// is the serve loop's predicate, so the common answers cost little: an
// empty queue neither locks nor reads the clock, and fresh ops (no gate)
// are due without a clock read.
func (st *DHTStore) dueNow() bool {
	if st.queued.Load() == 0 {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.queue) > st.gated {
		return true
	}
	now := time.Now()
	for _, o := range st.queue {
		if !o.notBefore.After(now) {
			return true
		}
	}
	return false
}

// idle reports drain completion: nothing queued, nothing in flight.
func (st *DHTStore) idle() bool {
	st.mu.Lock()
	empty := len(st.queue) == 0
	st.mu.Unlock()
	return empty && st.inflight == 0
}

// tryClose atomically confirms drain completion and seals the queue:
// taken under the same mutex as enqueue's append, so either the op
// made it in (and the loop keeps running to settle it) or the client
// got ErrDraining — an accepted op can never be abandoned.
func (st *DHTStore) tryClose() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.queue) == 0 && st.inflight == 0 {
		st.closed = true
		return true
	}
	return false
}

// take removes and returns every due op.
func (st *DHTStore) take() []*op {
	st.mu.Lock()
	defer st.mu.Unlock()
	var now time.Time
	if st.gated > 0 {
		now = time.Now()
	}
	var due []*op
	rest := st.queue[:0]
	for _, o := range st.queue {
		switch {
		case o.notBefore.IsZero():
			due = append(due, o)
		case o.notBefore.After(now):
			rest = append(rest, o)
		default:
			st.gated--
			due = append(due, o)
		}
	}
	for i := len(rest); i < len(st.queue); i++ {
		st.queue[i] = nil
	}
	st.queue = rest
	st.queued.Store(int64(len(rest)))
	return due
}

// issue starts one op against the table. Runs on the SPMD goroutine.
func (st *DHTStore) issue(me *core.Rank, tbl *dht.Table, hash func(string) uint64, o *op) {
	st.inflight++
	k := hash(o.key)
	switch o.kind {
	case opPut:
		st.puts.Add(1)
		if err := st.tryInsert(me, tbl, k, o); err != nil {
			st.settle(me, o, err)
		}
	case opGet:
		st.gets.Add(1)
		tbl.Lookup(me, k).OnDone(func(l *dht.Lookup) {
			v, found, err := l.Result()
			o.out.Val, o.out.Found = v, found
			st.settle(me, o, err)
		})
	}
}

// tryInsert issues one replicated insert, converting the table's typed
// every-replica-dead panic into an error the retry plane handles. A
// nil return means the op's promise is armed: acknowledgement of every
// live replica settles it through the Then continuation.
func (st *DHTStore) tryInsert(me *core.Rank, tbl *dht.Table, key uint64, o *op) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e, ok := r.(error)
		if !ok || !errors.Is(e, core.ErrRankDead) {
			panic(r)
		}
		err = e
	}()
	p := core.NewPromise(me)
	tbl.Insert(me, key, o.val, p)
	core.Then(p.Finalize(), func(struct{}) struct{} {
		st.settle(me, o, nil)
		return struct{}{}
	})
	return nil
}

// settle finishes one issued op: success and exhausted failures
// release the waiting client; a failure with attempts left goes back in
// the queue behind a doubling backoff. Runs on the SPMD goroutine (from
// progress dispatch or inline from issue).
func (st *DHTStore) settle(me *core.Rank, o *op, err error) {
	st.inflight--
	if err != nil {
		o.attempts++
		if o.attempts < st.retry.MaxAttempts {
			st.retries.Add(1)
			o.notBefore = time.Now().Add(st.retry.Backoff << (o.attempts - 1))
			st.mu.Lock()
			st.queue = append(st.queue, o)
			st.gated++
			st.queued.Store(int64(len(st.queue)))
			st.mu.Unlock()
			return
		}
		st.failures.Add(1)
		err = fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	o.out.Err = err
	close(o.done)
}

// Counters exposes the adapter's counters for the metrics plane.
func (st *DHTStore) Counters() map[string]float64 {
	return map[string]float64{
		"gate.puts":     float64(st.puts.Load()),
		"gate.gets":     float64(st.gets.Load()),
		"gate.retries":  float64(st.retries.Load()),
		"gate.failures": float64(st.failures.Load()),
		"gate.queued":   float64(st.queued.Load()),
	}
}
