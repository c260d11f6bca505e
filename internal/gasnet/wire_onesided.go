package gasnet

import (
	"fmt"
	"time"

	"upcxx/internal/transport"
)

// ---- Wire conduit: one-sided data plane ----

// maxChunk bounds the data carried by one Get reply or Put request so
// no frame ever exceeds transport.MaxPayload (the put request spends 8
// bytes on the offset); larger transfers are split into chunked
// requests rather than failing — or, worse, hanging the requester on a
// reply the transport refuses to send.
const maxChunk = transport.MaxPayload - 8

// A one-sided request the target cannot serve — a payload too short to
// hold its arguments, a range outside the segment, a misaligned atomic
// — is answered with a failure reply its requester tells from success
// by length alone: empty for get and xor (whose successful replies
// carry the data), one byte for put (whose successful reply is empty).
var putRefused = []byte{0}

// refused is the error a requester returns for a failure reply.
func refused(op string, rank int, off uint64, n int) error {
	return fmt.Errorf("gasnet: rank %d refused a %s of %d bytes at offset %d", rank, op, n, off)
}

// Get copies len(p) bytes from rank's segment at off into p: the
// transfer GetAsync issues, waited on.
func (c *WireConduit) Get(rank int, off uint64, p []byte) error {
	return c.issue(hGet, rank, off, p, 0, nil)
}

// GetAsync is the non-blocking Get (see Conduit.GetAsync).
func (c *WireConduit) GetAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error {
	return c.issue(hGet, rank, off, p, timeout, onDone)
}

// Put copies p into rank's segment at off: the transfer PutAsync
// issues, waited on.
func (c *WireConduit) Put(rank int, off uint64, p []byte) error {
	return c.issue(hPut, rank, off, p, 0, nil)
}

// PutAsync is the non-blocking Put (see Conduit.PutAsync).
func (c *WireConduit) PutAsync(rank int, off uint64, p []byte, timeout time.Duration, onDone func(err error)) error {
	return c.issue(hPut, rank, off, p, timeout, onDone)
}

// issue is the data plane's one chunk loop: it sends every chunk of a
// get (h == hGet, into p) or a put (of p) at rank to's offset off, all
// under one record, and with a nil onDone waits for it — the blocking
// form. A get chunk longer than transport.LongPayload arms the peer's
// reply landing on its part of p when the slot is free; every way the
// chunk ends (its reply, the death sweep, a deadline, a send failure)
// disarms it first. A put chunk leaves as its offset followed by the
// caller's bytes, borrowed; a put longer than the transport inlines is
// flushed here, so p is the caller's again on return. A transfer to
// self is a direct memory access. The error contract is GetAsync's:
// non-nil means onDone never runs.
func (c *WireConduit) issue(h uint16, to int, off uint64, p []byte, timeout time.Duration, onDone func(error)) error {
	if to == c.Rank() {
		if h == hGet {
			c.mem.Read(off, p)
		} else {
			c.mem.Write(off, p)
		}
		if onDone != nil {
			onDone(nil)
		}
		return nil
	}
	if err := c.deadErr(to); err != nil {
		return err
	}
	x := c.newReq(h, to, (len(p)+maxChunk-1)/maxChunk, timeout, onDone)
	x.off, x.p = off, p
	var err error
	for at := 0; at < len(p) && err == nil; at += maxChunk {
		chunk := p[at:min(len(p), at+maxChunk)]
		putU64(c.reqHdr[:], off+uint64(at))
		if h == hPut {
			err = c.post(x, c.reqHdr[:8], chunk)
			continue
		}
		putU64(c.reqHdr[8:], uint64(len(chunk)))
		if tok := x.tok + uint64(x.n); x.land == 0 && len(chunk) > transport.LongPayload && c.tep.ArmLanding(to, hReply, tok, chunk) {
			x.land = tok
		}
		err = c.post(x, c.reqHdr[:], nil)
	}
	if h == hPut && len(p) > transport.InlineMax {
		c.flush()
	}
	if err != nil {
		if err = c.sendFailed(x, err); err != nil {
			return err
		}
	} else if x.left == 0 {
		c.complete(x, nil) // empty
	}
	if onDone == nil {
		_, err = c.await(x)
	}
	return err
}

// gotChunk places one get chunk's reply: landed straight in the
// destination, or copied out of its frame.
func (c *WireConduit) gotChunk(x *wireReq, m transport.Message) error {
	at := int(m.Arg-x.tok) * maxChunk
	dst := x.p[at:min(len(x.p), at+maxChunk)]
	if x.land == m.Arg {
		x.land = 0
		if c.tep.DisarmLanding(x.to, hReply, m.Arg) {
			return nil
		}
	}
	if len(m.Payload) != len(dst) {
		return refused("get", x.to, x.off+uint64(at), len(dst))
	}
	copy(dst, m.Payload)
	return nil
}

// onGet replies with a borrowed view of the segment, so no copy is made
// on this side either. The view is read when the reply ships, in the
// flush that ends this dispatch turn (Poll's, or WaitFor's once its
// inbox is empty or its predicate holds) — not here: handlers the same
// turn dispatches after this one (task bodies, batch applies) may write
// the range first, and the reply then carries their writes. That is
// still a correct get: it has not completed until its reply arrives, so
// its read may take effect at any point before the reply ships, and the
// later handlers run on this goroutine, so the flush sees their writes
// whole. Only an unordered concurrent write — a put landing from
// another peer's reader — can make it a mix, as with RDMA.
func (c *WireConduit) onGet(m transport.Message) {
	var view []byte
	if len(m.Payload) >= 16 {
		if n := u64(m.Payload[8:]); n <= maxChunk {
			view = c.mem.Window(u64(m.Payload), n)
		}
	}
	c.reply(m, view) // nil view: refused
}

// landPut is hPut's lander: a long put's data is read straight into the
// segment window its offset names. The part that arrived with the
// header goes in through Write, under the memory's lock, so a local
// access that held the lock before is ordered before the landing. An
// out-of-range put declines, and onPut refuses it.
func (c *WireConduit) landPut(prefix, head []byte, rest int) []byte {
	off := u64(prefix)
	win := c.mem.Window(off, uint64(rest))
	if win != nil {
		c.mem.Write(off, head)
	}
	return win
}

func (c *WireConduit) onPut(m transport.Message) {
	if m.Landed == 0 {
		if len(m.Payload) < 8 || c.mem.Window(u64(m.Payload), uint64(len(m.Payload)-8)) == nil {
			c.reply(m, putRefused)
			return
		}
		c.mem.Write(u64(m.Payload), m.Payload[8:])
	}
	c.reply(m, nil)
}

// Xor64 performs the remote atomic update and returns the new value.
func (c *WireConduit) Xor64(rank int, off uint64, val uint64) (uint64, error) {
	if rank == c.Rank() {
		return c.mem.Xor64(off, val), nil
	}
	putU64(c.reqHdr[0:], off)
	putU64(c.reqHdr[8:], val)
	rep, err := c.request(rank, hXor, c.reqHdr[:])
	if err != nil {
		return 0, err
	}
	if len(rep) != 8 {
		return 0, refused("xor", rank, off, 8)
	}
	return u64(rep), nil
}

func (c *WireConduit) onXor(m transport.Message) {
	if len(m.Payload) < 16 || u64(m.Payload)%8 != 0 || c.mem.Window(u64(m.Payload), 8) == nil {
		c.reply(m, nil) // refused
		return
	}
	v := c.mem.Xor64(u64(m.Payload[0:]), u64(m.Payload[8:]))
	var rep [8]byte
	putU64(rep[:], v)
	c.reply(m, rep[:])
}
