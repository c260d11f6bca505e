package gasnet

import (
	"fmt"

	"upcxx/internal/transport"
)

// ---- Wire conduit: global memory management and lock service ----

// A control request the home cannot serve — a payload too short to hold
// its arguments, a lock id it never issued, the release of a lock that
// is not held — is answered with an empty reply, which its requester
// tells from every served answer (8 bytes) by length alone, as for the
// one-sided requests. The requester's call returns an error, so the
// rank that made the bad call aborts, not the home.

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
	if len(rep) != 8 || u64(rep) == 0 {
		return 0, fmt.Errorf("gasnet: remote alloc of %d bytes on rank %d failed", size, rank)
	}
	return u64(rep) - 1, nil
}

func (c *WireConduit) onAlloc(m transport.Message) {
	if len(m.Payload) < 8 {
		c.reply(m, nil) // refused
		return
	}
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
	if len(rep) != 8 || u64(rep) == 0 {
		return fmt.Errorf("gasnet: remote free at offset %d on rank %d failed", off, rank)
	}
	return nil
}

func (c *WireConduit) onFree(m transport.Message) {
	if len(m.Payload) < 8 {
		c.reply(m, nil) // refused
		return
	}
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
	if len(rep) != 8 {
		return false, fmt.Errorf("gasnet: rank %d refused to acquire lock %d", home, id)
	}
	return u64(rep) == 1, nil
}

func (c *WireConduit) onLockAcquire(m transport.Message) {
	st := c.lockFor(m, 9)
	if st == nil {
		c.reply(m, nil) // refused
		return
	}
	var rep [8]byte
	switch {
	case !st.held:
		st.held = true
		putU64(rep[:], 1)
	case m.Payload[8] == 1: // try
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
	rep, err := c.request(home, hLockRel, c.reqHdr[:8])
	if err == nil && len(rep) != 8 {
		err = fmt.Errorf("gasnet: rank %d refused to release lock %d", home, id)
	}
	return err
}

// lockFor returns the lock a request of at least n payload bytes names,
// or nil for a shorter payload or an id this rank never issued.
func (c *WireConduit) lockFor(m transport.Message, n int) *wireLockState {
	if len(m.Payload) < n {
		return nil
	}
	return c.locks[u64(m.Payload)]
}

func (c *WireConduit) onLockRelease(m transport.Message) {
	st := c.lockFor(m, 8)
	if st == nil || !st.held {
		c.reply(m, nil) // refused
		return
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
