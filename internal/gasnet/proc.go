package gasnet

import "fmt"

// ProcConduit is the in-process Conduit: ranks are goroutines of one
// address space, data moves by direct segment access (the RDMA analog),
// and control traffic rides the Engine's active messages so the
// virtual-time cost model keeps charging exactly what the pre-conduit
// runtime charged. It is the fast path and the reference semantics; the
// wire backend must agree with it on every computed answer.
type ProcConduit struct {
	ep    *Endpoint
	group *procGroup

	// Lock service state for locks homed on this rank. Manipulated only
	// by active messages executing on this rank's goroutine, so no
	// mutex is needed (the same discipline the engine's AM handlers
	// follow everywhere).
	locks      map[uint64]*procLockState
	nextLockID uint64
}

type procGroup struct {
	mems     []Memory
	conduits []*ProcConduit
}

type procLockState struct {
	held  bool
	queue []procLockWaiter
}

type procLockWaiter struct {
	rank    int
	granted *bool
}

// NewProcGroup builds one ProcConduit per rank of the engine, serving
// remote requests against mems (indexed by rank).
func NewProcGroup(eng *Engine, mems []Memory) []*ProcConduit {
	if len(mems) != eng.N {
		panic(fmt.Sprintf("gasnet: %d memories for %d ranks", len(mems), eng.N))
	}
	g := &procGroup{mems: mems, conduits: make([]*ProcConduit, eng.N)}
	for i := range g.conduits {
		g.conduits[i] = &ProcConduit{
			ep:    eng.Endpoint(i),
			group: g,
			locks: make(map[uint64]*procLockState),
		}
	}
	return g.conduits
}

// Rank returns this conduit's rank.
func (c *ProcConduit) Rank() int { return c.ep.Rank }

// Ranks returns the job size.
func (c *ProcConduit) Ranks() int { return c.ep.N() }

// WireCapable reports false: ranks share one address space, so closure
// asyncs are allowed.
func (c *ProcConduit) WireCapable() bool { return false }

// Capabilities: none. Batch and async stay nil because an in-process
// remote access is already a direct segment load/store — coalescing or
// splitting initiation from completion would only add latency; the
// core's virtual-time path models the overlap instead. Resilience is
// simulated above the conduit (core's chaos plane).
func (c *ProcConduit) Capabilities() Caps { return Caps{} }

// TeamAllGather rides the engine's subset rendezvous; contributions are
// indexed by team rank (position in members).
func (c *ProcConduit) TeamAllGather(key uint64, members []int, contrib []byte) ([][]byte, error) {
	idx := -1
	for i, m := range members {
		if m == c.ep.Rank {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("gasnet: rank %d is not a member of team collective %#x", c.ep.Rank, key)
	}
	return c.ep.TeamGather(key, idx, len(members), contrib), nil
}

// TeamBarrier is a payload-free team allgather.
func (c *ProcConduit) TeamBarrier(key uint64, members []int) error {
	_, err := c.TeamAllGather(key, members, nil)
	return err
}

// Get copies from the target segment under its lock — the one-sided
// RDMA analog. The caller charges get costs; no messages are involved.
func (c *ProcConduit) Get(rank int, off uint64, p []byte) error {
	c.group.mems[rank].Read(off, p)
	return nil
}

// Put copies into the target segment under its lock.
func (c *ProcConduit) Put(rank int, off uint64, p []byte) error {
	c.group.mems[rank].Write(off, p)
	return nil
}

// Xor64 performs the remote atomic directly on the target segment.
func (c *ProcConduit) Xor64(rank int, off uint64, val uint64) (uint64, error) {
	return c.group.mems[rank].Xor64(off, val), nil
}

// call is the blocking request/reply AM pattern remote control ops use:
// fn runs on the target's goroutine, the reply value travels back, and
// both legs are charged to the cost model.
func (c *ProcConduit) call(target, reqBytes, repBytes int, fn func() uint64) uint64 {
	if target == c.ep.Rank {
		// Loopback still rides Send for uniform cost accounting.
		var reply uint64
		c.ep.Send(target, reqBytes, func(*Endpoint) { reply = fn() })
		return reply
	}
	var (
		reply uint64
		done  bool
	)
	me := c.ep.Rank
	c.ep.Send(target, reqBytes, func(tep *Endpoint) {
		v := fn()
		tep.Send(me, repBytes, func(*Endpoint) {
			reply = v
			done = true
		})
	})
	c.ep.WaitFor(func() bool { return done })
	return reply
}

// Alloc reserves size bytes in rank's segment; remote allocation is an
// AM round trip executed on the owner's goroutine (16-byte request,
// 16-byte reply, matching the paper's remote-allocate RPC shape).
func (c *ProcConduit) Alloc(rank int, size uint64) (uint64, error) {
	if rank == c.ep.Rank {
		return c.group.mems[rank].Alloc(size)
	}
	const failed = ^uint64(0)
	mem := c.group.mems[rank]
	v := c.call(rank, 16, 16, func() uint64 {
		off, err := mem.Alloc(size)
		if err != nil {
			return failed
		}
		return off + 1
	})
	if v == failed {
		return 0, fmt.Errorf("gasnet: remote alloc of %d bytes on rank %d failed", size, rank)
	}
	return v - 1, nil
}

// Free releases an allocation in rank's segment.
func (c *ProcConduit) Free(rank int, off uint64) error {
	if rank == c.ep.Rank {
		return c.group.mems[rank].Free(off)
	}
	mem := c.group.mems[rank]
	ok := c.call(rank, 16, 8, func() uint64 {
		if mem.Free(off) != nil {
			return 0
		}
		return 1
	})
	if ok == 0 {
		return fmt.Errorf("gasnet: remote free at offset %d on rank %d failed", off, rank)
	}
	return nil
}

// LockNew creates a lock homed on this rank.
func (c *ProcConduit) LockNew() uint64 {
	c.nextLockID++
	id := c.nextLockID
	c.locks[id] = &procLockState{}
	return id
}

// LockAcquire blocks until the lock (homed on home) is held by this
// rank, servicing tasks while waiting; with try it reports failure
// instead of queueing. Grant and release each cost one round trip, like
// a network lock service.
func (c *ProcConduit) LockAcquire(home int, id uint64, try bool) (bool, error) {
	homeC := c.group.conduits[home]
	if try {
		got := c.call(home, 16, 8, func() uint64 {
			st := homeC.locks[id]
			if st == nil {
				panic("gasnet: TryAcquire on unknown lock")
			}
			if st.held {
				return 0
			}
			st.held = true
			return 1
		})
		return got == 1, nil
	}
	granted := false
	me := c.ep.Rank
	c.ep.Send(home, 16, func(tep *Endpoint) {
		st := homeC.locks[id]
		if st == nil {
			panic("gasnet: Acquire on unknown lock")
		}
		if st.held {
			st.queue = append(st.queue, procLockWaiter{rank: me, granted: &granted})
			return
		}
		st.held = true
		tep.Send(me, 8, func(*Endpoint) { granted = true })
	})
	c.ep.WaitFor(func() bool { return granted })
	return true, nil
}

// LockRelease releases the lock, handing it to the oldest queued waiter
// if any. The caller must hold the lock.
func (c *ProcConduit) LockRelease(home int, id uint64) error {
	homeC := c.group.conduits[home]
	done := false
	me := c.ep.Rank
	c.ep.Send(home, 16, func(tep *Endpoint) {
		st := homeC.locks[id]
		if st == nil || !st.held {
			panic("gasnet: Release of unheld lock")
		}
		if len(st.queue) > 0 {
			next := st.queue[0]
			st.queue = st.queue[1:]
			// Hand off directly: the lock stays held, the waiter wakes.
			g := next.granted
			tep.Send(next.rank, 8, func(*Endpoint) { *g = true })
		} else {
			st.held = false
		}
		tep.Send(me, 8, func(*Endpoint) { done = true })
	})
	c.ep.WaitFor(func() bool { return done })
	return nil
}

// Poll services queued engine tasks without blocking.
func (c *ProcConduit) Poll() int { return c.ep.Poll() }

// Close is a no-op: the engine owns no external resources.
func (c *ProcConduit) Close() error { return nil }
