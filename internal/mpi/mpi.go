// Package mpi is the two-sided message-passing baseline of the
// evaluation: non-blocking sends and receives with tag matching
// (MPI_Isend / MPI_Irecv / MPI_Waitall), eager and rendezvous protocols,
// and the collectives the benchmarks need. The paper's LULESH study (Fig
// 8) compares its MPI version — which uses exactly these primitives for
// the 26-neighbor ghost exchange — against the one-sided UPC++ port.
//
// The layer runs over the same gasnet substrate and machine model as
// UPC++; only the protocol differs. Two-sided matching adds a per-message
// software cost (sim.SW.TwoSidedNs), an extra copy when a message arrives
// before its receive is posted (the unexpected queue), and a rendezvous
// round trip above the eager threshold. Those are the mechanisms behind
// the ~10% one-sided advantage the paper reports at 32K ranks.
package mpi

import (
	"fmt"
	"unsafe"

	"upcxx/internal/core"
)

// AnySource matches a receive against any sending rank.
const AnySource = -1

// AnyTag matches a receive against any tag.
const AnyTag = -1

// Request tracks one non-blocking operation. All fields are owned by the
// requesting rank's goroutine.
type Request struct {
	done       bool
	completeAt float64 // virtual completion time
	recvBuf    []byte  // destination of a pending receive
	n          int     // bytes transferred
	src, tag   int     // match signature (receives)
}

// Test reports whether the operation has completed, polling progress.
func (r *Request) Test(me *core.Rank) bool {
	me.Advance()
	return r.done
}

type pendingRecv struct {
	src, tag int
	buf      []byte
	req      *Request
}

type unexpected struct {
	src, tag   int
	data       []byte
	arrival    float64
	rendezvous bool
	sender     int
	sendReq    *Request
	parked     bool // arrived before the receive was posted (extra copy)
}

// Comm is one rank's communicator. Construction is collective; matching
// state is only ever touched by the owning rank's goroutine (posted
// receives locally, incoming sends inside AM handlers), so no locking is
// required — the same single-threaded-progress discipline MPI
// implementations use.
type Comm struct {
	me    *core.Rank
	all   []*Comm
	recvs []*pendingRecv
	unexp []*unexpected
}

// New collectively creates the job's communicators.
func New(me *core.Rank) *Comm {
	c := &Comm{me: me}
	c.all = core.TeamAllGather(me.World(), c)
	me.Barrier()
	return c
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.me.ID() }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.me.Ranks() }

// Barrier is MPI_Barrier.
func (c *Comm) Barrier() { c.me.Barrier() }

// Isend starts a non-blocking send of data to the given rank and tag.
// The payload is captured by reference; the caller must not modify it
// until the request completes (MPI semantics).
func (c *Comm) Isend(to, tag int, data []byte) *Request {
	me := c.me
	mo := me.Model()
	req := &Request{n: len(data)}
	me.Lapse(mo.TwoSidedMatchCost())

	rendezvous := len(data) > mo.EagerThreshold()
	var shipped []byte
	if rendezvous {
		shipped = data // handed over when matched; no eager copy
	} else {
		// Eager: the payload is buffered and the sender completes
		// locally as soon as injection finishes.
		shipped = make([]byte, len(data))
		copy(shipped, data)
	}

	headerBytes := 32
	wireBytes := headerBytes
	if !rendezvous {
		wireBytes += len(data)
	}
	sendTime := me.Now()
	if !rendezvous {
		req.done = true
		req.completeAt = mo.EagerSendDone(sendTime)
	}

	from := me.ID()
	me.AM(to, wireBytes, func(tgt *core.Rank) {
		tc := c.all[tgt.ID()]
		tc.arrived(tgt, &unexpected{
			src:        from,
			tag:        tag,
			data:       shipped,
			arrival:    tgt.Now(),
			rendezvous: rendezvous,
			sender:     from,
			sendReq:    req,
		})
	})
	return req
}

// arrived handles an incoming send at the target: match a posted receive
// or queue as unexpected.
func (c *Comm) arrived(tgt *core.Rank, u *unexpected) {
	for i, pr := range c.recvs {
		if matches(pr.src, pr.tag, u.src, u.tag) {
			c.recvs = append(c.recvs[:i], c.recvs[i+1:]...)
			c.complete(tgt, pr, u)
			return
		}
	}
	if !u.rendezvous {
		// The eager unexpected copy: payload parked in a temp buffer
		// until the receive is posted (the cost one-sided transfers
		// avoid).
		parked := make([]byte, len(u.data))
		copy(parked, u.data)
		u.data = parked
		tgt.MemWork(float64(len(parked)))
	}
	u.parked = true
	c.unexp = append(c.unexp, u)
}

// complete finishes a matched transfer at the receiver and notifies the
// sender if it is still waiting (rendezvous).
func (c *Comm) complete(tgt *core.Rank, pr *pendingRecv, u *unexpected) {
	n := copy(pr.buf, u.data)
	matchTime := tgt.Now()
	if u.arrival > matchTime {
		matchTime = u.arrival
	}
	// A receive posted in time lands directly in the user buffer (no
	// extra copy); only parked unexpected payloads pay the copy-out. A
	// rendezvous's RTS already arrived: the CTS round trip and the bulk
	// transfer follow the match.
	completion := tgt.Model().RecvDone(matchTime, u.sender, tgt.ID(), n, u.rendezvous, u.parked)
	if u.rendezvous {
		// Sender completes when the bulk transfer drains.
		sreq := u.sendReq
		tgt.AMAt(u.sender, completion, 0, func(*core.Rank) {
			sreq.done = true
			sreq.completeAt = completion
		})
	}
	pr.req.done = true
	pr.req.completeAt = completion
	pr.req.n = n
	// complete always runs on the receiver's goroutine (either inside
	// Irecv or inside the arrived() handler the receiver polled), so a
	// blocked Wait rechecks its predicate as soon as this returns; the
	// completion *time* is applied by Wait's AdvanceTo, preserving
	// overlap between posting and completion.
}

// Irecv posts a non-blocking receive into buf from the given source rank
// (or AnySource) and tag (or AnyTag).
func (c *Comm) Irecv(from, tag int, buf []byte) *Request {
	me := c.me
	me.Lapse(me.Model().TwoSidedMatchCost())
	req := &Request{recvBuf: buf, src: from, tag: tag}
	pr := &pendingRecv{src: from, tag: tag, buf: buf, req: req}
	// Match against the unexpected queue first (FIFO per signature).
	for i, u := range c.unexp {
		if matches(from, tag, u.src, u.tag) {
			c.unexp = append(c.unexp[:i], c.unexp[i+1:]...)
			c.complete(me, pr, u)
			return req
		}
	}
	c.recvs = append(c.recvs, pr)
	return req
}

func matches(wantSrc, wantTag, src, tag int) bool {
	return (wantSrc == AnySource || wantSrc == src) && (wantTag == AnyTag || wantTag == tag)
}

// Wait blocks until every request completes (MPI_Waitall), advancing the
// virtual clock to the latest completion.
func (c *Comm) Wait(reqs ...*Request) {
	me := c.me
	me.WaitUntil(func() bool {
		for _, r := range reqs {
			if !r.done {
				return false
			}
		}
		return true
	})
	maxT := 0.0
	for _, r := range reqs {
		if r.completeAt > maxT {
			maxT = r.completeAt
		}
	}
	me.AdvanceTo(maxT)
}

// Send is a blocking typed send (MPI_Send).
func Send[T any](c *Comm, to, tag int, data []T) {
	c.Wait(Isend(c, to, tag, data))
}

// Recv is a blocking typed receive (MPI_Recv).
func Recv[T any](c *Comm, from, tag int, buf []T) {
	c.Wait(Irecv(c, from, tag, buf))
}

// Isend is the typed non-blocking send.
func Isend[T any](c *Comm, to, tag int, data []T) *Request {
	return c.Isend(to, tag, bytesOf(data))
}

// Irecv is the typed non-blocking receive.
func Irecv[T any](c *Comm, from, tag int, buf []T) *Request {
	return c.Irecv(from, tag, bytesOf(buf))
}

// bytesOf views a POD slice as bytes (both directions share memory).
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	sz := int(unsafe.Sizeof(t))
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*sz)
}

// Allreduce combines one float64 per rank with op on every rank.
func (c *Comm) Allreduce(v float64, op func(a, b float64) float64) float64 {
	return core.TeamReduce(c.me.World(), v, op)
}

// AllreduceI combines one int64 per rank.
func (c *Comm) AllreduceI(v int64, op func(a, b int64) int64) int64 {
	return core.TeamReduce(c.me.World(), v, op)
}

// Allgather collects one int64 per rank (shared read-only result).
func (c *Comm) Allgather(v int64) []int64 {
	return core.TeamAllGather(c.me.World(), v)
}

func (c *Comm) String() string {
	return fmt.Sprintf("mpi.Comm(rank %d of %d)", c.me.ID(), c.me.Ranks())
}
