package gasnet

import (
	"fmt"

	"upcxx/internal/frames"
	"upcxx/internal/transport"
)

// ---- Wire conduit: team collectives ----

// fragKey identifies one in-flight fragmented collective payload.
type fragKey struct {
	key  uint64
	from int32
}

// fragBuf reassembles a fragmented payload: buf holds the bytes received
// so far, total how many the first fragment announced.
type fragBuf struct {
	buf   []byte
	total uint64
}

// Collective payloads (a member's contribution, the root's gathered
// table) have no inherent size bound, so they travel as one or more
// fragments prefixed [total u64][offset u64], every one but the last
// carrying maxFragData bytes; TCP's per-connection ordering keeps one
// sender's fragments in order and the (key, sender) pair separates
// interleaved senders.
const maxFragData = transport.MaxPayload - 16

// maxCollectiveBytes bounds one collective payload: far above any table
// the runtime gathers (the largest the tests move is two 17 MiB
// contributions), it caps what a peer's fragment header can make this
// rank allocate.
const maxCollectiveBytes = 256 << 20

// sendFragmented ships payload to rank `to` in bounded fragments (a
// zero-length payload still sends one header-only fragment, so the
// receiver always completes).
func (c *WireConduit) sendFragmented(to int, handler uint16, key uint64, payload []byte) error {
	total := uint64(len(payload))
	if total > maxCollectiveBytes {
		return fmt.Errorf("gasnet: %d-byte collective payload exceeds the %d-byte bound", total, maxCollectiveBytes)
	}
	off := uint64(0)
	for {
		n := min(total-off, maxFragData)
		frame := frames.Get(int(16 + n))
		putU64(frame[0:], total)
		putU64(frame[8:], off)
		copy(frame[16:], payload[off:off+n])
		// The fragment buffer is pooled and handed to the transport,
		// which recycles it after the writev (or on any error path).
		if err := c.sendOwned(transport.Message{
			To: int32(to), Handler: handler, Arg: key, Payload: frame,
		}); err != nil {
			return err
		}
		off += n
		if off >= total {
			return nil
		}
	}
}

// reassemble folds fragment m into its sender's buffer for m's key in
// frags and returns the complete payload once every byte has arrived.
// A fragment sendFragmented would not have sent next — shorter than its
// header, a total over maxCollectiveBytes or other than the first
// fragment's, an offset other than the bytes received so far, short
// before the last — is dropped and severs its sender. The buffer is
// allocated only once a well-formed first fragment has arrived, so a
// header alone cannot make this rank allocate more than the bytes that
// came with it, times maxCollectiveBytes/maxFragData at most.
func (c *WireConduit) reassemble(frags map[fragKey]*fragBuf, m transport.Message) ([]byte, bool) {
	k := fragKey{key: m.Arg, from: m.From}
	fb := frags[k]
	if fb == nil {
		fb = &fragBuf{}
		frags[k] = fb
	}
	if err := fb.accum(m.Payload); err != nil {
		delete(frags, k)
		c.severMalformed(m, err)
		return nil, false
	}
	if uint64(len(fb.buf)) < fb.total {
		return nil, false
	}
	delete(frags, k)
	return fb.buf, true
}

// accum appends one fragment, or reports why sendFragmented would not
// have sent it next.
func (fb *fragBuf) accum(payload []byte) error {
	if len(payload) < 16 {
		return fmt.Errorf("%d-byte fragment, under its 16-byte header", len(payload))
	}
	total, off, data := u64(payload), u64(payload[8:]), payload[16:]
	if fb.buf == nil {
		if total > maxCollectiveBytes {
			return fmt.Errorf("fragment of a %d-byte payload, over the %d-byte bound", total, maxCollectiveBytes)
		}
		fb.total = total
	}
	if total != fb.total || off != uint64(len(fb.buf)) || uint64(len(data)) != min(total-off, maxFragData) {
		return fmt.Errorf("%d bytes at offset %d of %d, after %d of %d bytes", len(data), off, total, len(fb.buf), fb.total)
	}
	if fb.buf == nil {
		fb.buf = make([]byte, 0, total)
	}
	fb.buf = append(fb.buf, data...)
	return nil
}

// TeamAllGather deposits this rank's contribution with the team root
// (members[0]) and returns every member's, indexed by team rank. The
// rendezvous is keyed by the caller-chosen key, so independent teams
// gather concurrently; contributions park by world rank at the root,
// which may receive deposits before it enters the collective itself.
//
// In resilient mode the root completes once every member has either
// deposited or been declared dead (a deposit that arrived before the
// death notice still counts), a dead member's slot comes back empty
// and no table is sent to it, and a member fails with RankDeadError if
// the root dies — the rendezvous point is gone.
func (c *WireConduit) TeamAllGather(key uint64, members []int, contrib []byte) ([][]byte, error) {
	root := members[0]
	if c.Rank() != root {
		if err := c.deadErr(root); err != nil {
			return nil, err
		}
		if err := c.sendFragmented(root, hTeamGather, key, contrib); err != nil {
			if derr := c.noteSendError(root, err); derr != nil {
				return nil, derr
			}
			return nil, err
		}
		var enc []byte
		found := false
		if err := c.wait(func() bool {
			enc, found = c.teamResult[key]
			return found || c.isDead(root)
		}); err != nil {
			return nil, err
		}
		if !found {
			return nil, c.deadErr(root)
		}
		delete(c.teamResult, key)
		return decodeParts(enc, len(members))
	}

	c.depositTeam(key, int32(root), contrib)
	if err := c.wait(func() bool { return c.teamArrived(key, members) }); err != nil {
		return nil, err
	}
	byRank := c.teamParts[key]
	delete(c.teamParts, key)
	parts := make([][]byte, len(members))
	for i, m := range members {
		parts[i] = byRank[int32(m)] // nil: declared dead before depositing
	}
	enc := encodeParts(parts)
	for _, m := range members[1:] {
		if c.isDead(m) {
			continue
		}
		if err := c.sendFragmented(m, hTeamResult, key, enc); err != nil {
			if c.noteSendError(m, err) != nil {
				continue // declared dead mid-broadcast; the rest still get the table
			}
			return nil, err
		}
	}
	// Members may not block again on our traffic; ship the tables now.
	c.flush()
	return parts, nil
}

// teamArrived is the root's completion predicate: every member has
// deposited or, in resilient mode, been declared dead.
func (c *WireConduit) teamArrived(key uint64, members []int) bool {
	byRank := c.teamParts[key]
	for _, m := range members {
		if _, ok := byRank[int32(m)]; !ok && !c.isDead(m) {
			return false
		}
	}
	return true
}

// TeamBarrier is a payload-free team allgather.
func (c *WireConduit) TeamBarrier(key uint64, members []int) error {
	_, err := c.TeamAllGather(key, members, nil)
	return err
}

// depositTeam parks one member's contribution at the root. A nil
// contribution still creates the map entry — arrival is what the
// completion predicate counts.
func (c *WireConduit) depositTeam(key uint64, rank int32, contrib []byte) {
	byRank := c.teamParts[key]
	if byRank == nil {
		byRank = make(map[int32][]byte)
		c.teamParts[key] = byRank
	}
	if contrib == nil {
		contrib = []byte{}
	}
	byRank[rank] = contrib
}

func (c *WireConduit) onTeamGather(m transport.Message) {
	if c.isDead(int(m.From)) {
		// The collective may already have completed without this rank;
		// its late deposit must not park for a key nobody waits on.
		return
	}
	if full, done := c.reassemble(c.teamFrags, m); done {
		c.depositTeam(m.Arg, m.From, full)
	}
}

func (c *WireConduit) onTeamResult(m transport.Message) {
	if full, done := c.reassemble(c.teamResultFrags, m); done {
		c.teamResult[m.Arg] = full
	}
}

// encodeParts length-prefixes each rank's contribution.
func encodeParts(parts [][]byte) []byte {
	total := 0
	for _, p := range parts {
		total += 8 + len(p)
	}
	enc := make([]byte, total)
	off := 0
	for _, p := range parts {
		putU64(enc[off:], uint64(len(p)))
		off += 8
		off += copy(enc[off:], p)
	}
	return enc
}

func decodeParts(enc []byte, n int) ([][]byte, error) {
	parts := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(enc) < 8 {
			return nil, fmt.Errorf("gasnet: truncated allgather table at rank %d", i)
		}
		ln := u64(enc)
		enc = enc[8:]
		if uint64(len(enc)) < ln {
			return nil, fmt.Errorf("gasnet: truncated allgather contribution for rank %d", i)
		}
		if ln > 0 {
			parts[i] = enc[:ln:ln]
		}
		enc = enc[ln:]
	}
	return parts, nil
}
