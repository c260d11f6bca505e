package gasnet

import (
	"fmt"

	"upcxx/internal/transport"
)

// ---- Wire conduit: global memory management and lock service ----

type wireLockState struct {
	held  bool
	queue []wireLockWaiter
}

type wireLockWaiter struct {
	rank  int32
	token uint64
}

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

func (c *WireConduit) onAlloc(m transport.Message) {
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

func (c *WireConduit) onFree(m transport.Message) {
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

func (c *WireConduit) onLockAcquire(m transport.Message) {
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

func (c *WireConduit) onLockRelease(m transport.Message) {
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
