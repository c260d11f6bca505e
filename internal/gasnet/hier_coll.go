package gasnet

import (
	"fmt"
	"math/bits"
	"slices"

	"upcxx/internal/frames"
	"upcxx/internal/obs"
	"upcxx/internal/transport"
)

// ---- Hierarchical collectives ----
//
// How a collective waits is fixed where it waits, by what can end the
// wait. A leader waiting for the other leaders — the dissemination
// token, a child's subtree blob, the table from its tree parent — is
// ended only by a wire frame, and so is a non-leader waiting for its
// release or its table when the team spans more than one host (its
// leader is on the wire meanwhile). These park at once, and the park
// reads the frame: from the inbox, or, once one peer's frames have
// ended the rank's last parks, from that peer's socket itself. A wait
// that a co-located rank ends — a leader collecting its host's
// arrivals or contributions, every wait of a team on one host — polls
// the rank's budget first, as WaitFor does.

type hierBarKey struct {
	key   uint64
	round int
}

// hierWait is what a wait in progress waits for: the key of its
// collective (or the token of a control request), the dissemination
// round, and a count of arrivals or contributions, or the tree child.
type hierWait struct {
	key   uint64
	round int
	n     int
}

// hierPreds are the predicates of the conduit's waits, each reading
// h.cw. NewHierConduit builds them once: a closure per wait would be an
// allocation per wait.
type hierPreds struct {
	replied     func() bool // shmRequest: the reply to token key
	tableIn     func() bool // non-leader: the table from its leader
	contributed func() bool // leader: n contributions deposited
	blobIn      func() bool // leader: child n's subtree blob
	treeTableIn func() bool // leader: the table from its tree parent
	released    func() bool // non-leader: the release
	arrived     func() bool // leader: n local arrivals
	tokenIn     func() bool // leader: the round's dissemination token
}

func (h *HierConduit) newHierPreds() hierPreds {
	has := func(m map[uint64][]byte) func() bool {
		return func() bool { _, ok := m[h.cw.key]; return ok }
	}
	return hierPreds{
		replied:     has(h.replies),
		tableIn:     has(h.localTable),
		contributed: func() bool { return len(h.localParts[h.cw.key]) == h.cw.n },
		blobIn:      func() bool { _, ok := h.treeBlobs[h.cw.key][h.cw.n]; return ok },
		treeTableIn: has(h.hierTable),
		released:    func() bool { return h.barRelease[h.cw.key] },
		arrived:     func() bool { return h.barLocal[h.cw.key] == h.cw.n },
		tokenIn:     func() bool { return h.barWire[hierBarKey{key: h.cw.key, round: h.cw.round}] > 0 },
	}
}

// await waits for pred, which reads w, with the poll budget of the call
// site (wait). A collective entered from a handler while this one waits
// awaits in turn and restores w when it returns.
func (h *HierConduit) await(w hierWait, pred func() bool, polls int) error {
	outer := h.cw
	h.cw = w
	err := h.wait(pred, polls)
	h.cw = outer
	return err
}

// memberPolls is a non-leader's budget for its release or table. Its
// leader sends it once the leaders have met, so on a team of more than
// one host only a wire frame to the leader can end the wait, and it
// parks at once.
func (h *HierConduit) memberPolls(leaders int) int {
	if leaders > 1 {
		return 0
	}
	return h.polls
}

// byRank returns an empty per-key map of contributions or blobs, one a
// finished collective gave back if there is one.
func (h *HierConduit) byRank() map[int][]byte {
	if n := len(h.spare); n > 0 {
		m := h.spare[n-1]
		h.spare = h.spare[:n-1]
		return m
	}
	return make(map[int][]byte)
}

// giveBack empties m and keeps it for the next key.
func (h *HierConduit) giveBack(m map[int][]byte) {
	clear(m)
	h.spare = append(h.spare, m)
}

// hierPart is one team's split into per-host groups, in buffers that
// are reused from one collective to the next.
type hierPart struct {
	groupOf []int   // host -> 1 + index of its group (0: no member seen there)
	groups  [][]int // members per host in team order, groups[i][0] leading; one slot per host
	leaders []int   // groups[i][0] of every host that has members

	// A leader's allgather scratch: blob collects its subtree's entries;
	// at the tree root, slot maps a world rank to 1 + its team index
	// (0 outside the team) while the entries are decoded into parts.
	blob  []byte
	slot  []int
	parts [][]byte
}

// partition splits members into per-host groups preserving team order,
// with each group's first member as its leader. leaders[0] == members[0],
// so the tree root is the team root. Returns the split and this rank's
// group index. Panics if this rank is not a member — the
// Conduit.TeamAllGather contract. The caller holds the buffers until it
// hands them back (h.part = p); a collective entered from a handler in
// the meantime builds its own.
func (h *HierConduit) partition(members []int) (p *hierPart, gi int) {
	p, h.part = h.part, nil
	if p == nil {
		hosts := slices.Max(h.nodes) + 1
		p = &hierPart{groupOf: make([]int, hosts), groups: make([][]int, hosts), slot: make([]int, len(h.nodes))}
	}
	clear(p.groupOf)
	p.leaders = p.leaders[:0]
	gi = -1
	for _, m := range members {
		g := p.groupOf[h.nodes[m]] - 1
		if g < 0 {
			g = len(p.leaders)
			p.groupOf[h.nodes[m]] = g + 1
			p.groups[g] = p.groups[g][:0]
			p.leaders = append(p.leaders, m)
		}
		p.groups[g] = append(p.groups[g], m)
		if m == h.me {
			gi = g
		}
	}
	if gi < 0 {
		panic(fmt.Sprintf("gasnet: rank %d is not a member of the team", h.me))
	}
	return p, gi
}

// table decodes the entries the tree root gathered into members' order
// and encodes the team's table.
func (p *hierPart) table(key uint64, members []int, blob []byte) ([]byte, error) {
	for i, m := range members {
		p.slot[m] = i + 1
	}
	p.parts = slices.Grow(p.parts[:0], len(members))[:len(members)]
	clear(p.parts)
	err := decodeEntries(blob, p.slot, p.parts)
	for _, m := range members {
		p.slot[m] = 0
	}
	if err != nil {
		return nil, err
	}
	for i, c := range p.parts {
		if c == nil {
			return nil, fmt.Errorf("gasnet: hier collective %#x: missing contribution from rank %d", key, members[i])
		}
	}
	return encodeParts(p.parts), nil
}

// encodeEntry appends one (world rank, contribution) record.
func encodeEntry(blob []byte, rank int, p []byte) []byte {
	var hdr [16]byte
	putU64(hdr[0:], uint64(rank))
	putU64(hdr[8:], uint64(len(p)))
	blob = append(blob, hdr[:]...)
	return append(blob, p...)
}

// decodeEntries puts each entry of blob at its rank's index in parts:
// slot[rank] is 1 + that index, 0 for a rank outside the team. The
// entries alias blob, which is not empty, so none is nil.
func decodeEntries(blob []byte, slot []int, parts [][]byte) error {
	for len(blob) > 0 {
		if len(blob) < 16 {
			return fmt.Errorf("gasnet: truncated hier entry blob")
		}
		rank, ln := u64(blob[0:]), u64(blob[8:])
		blob = blob[16:]
		if uint64(len(blob)) < ln {
			return fmt.Errorf("gasnet: truncated hier entry for rank %d", rank)
		}
		if rank >= uint64(len(slot)) || slot[rank] == 0 {
			return fmt.Errorf("gasnet: hier entry for rank %d, not a member of the team", rank)
		}
		parts[slot[rank]-1] = blob[:ln:ln]
		blob = blob[ln:]
	}
	return nil
}

func (h *HierConduit) depositLocal(key uint64, world int, contrib []byte) {
	byRank := h.localParts[key]
	if byRank == nil {
		byRank = h.byRank()
		h.localParts[key] = byRank
	}
	if contrib == nil {
		contrib = []byte{}
	}
	byRank[world] = contrib
}

// TeamAllGather runs the team allgather hierarchically: local gather to
// the host leader, binomial tree among leaders, binomial broadcast of
// the table back down, local distribution. The world is one more team.
func (h *HierConduit) TeamAllGather(key uint64, members []int, contrib []byte) ([][]byte, error) {
	p, gi := h.partition(members)
	defer func() { h.part = p }()
	group, leaders := p.groups[gi], p.leaders
	w := hierWait{key: key}

	if h.me != group[0] {
		// Non-leader: contribute to the host leader, wait for the table.
		h.shm.Send(h.localIdx[group[0]], shmTeamContrib, key, contrib)
		if err := h.await(w, h.preds.tableIn, h.memberPolls(len(leaders))); err != nil {
			return nil, err
		}
		enc := h.localTable[key]
		delete(h.localTable, key)
		return decodeParts(enc, len(members))
	}

	// Leader: local gather phase.
	h.ring.Begin(obs.KHierLocal, -1, uint32(len(group)))
	h.depositLocal(key, h.me, contrib)
	w.n = len(group)
	err := h.await(w, h.preds.contributed, h.polls)
	h.ring.End(obs.KHierLocal)
	if err != nil {
		return nil, err
	}
	byRank := h.localParts[key]
	delete(h.localParts, key)
	blob := p.blob[:0]
	for _, m := range group {
		c, ok := byRank[m]
		if !ok {
			return nil, fmt.Errorf("gasnet: hier collective %#x: deposit from non-member while awaiting rank %d", key, m)
		}
		blob = encodeEntry(blob, m, c)
	}
	h.giveBack(byRank)

	// Binomial tree gather among leaders, rooted at leaders[0]. Only a
	// child's frame ends a wait for its blob: park at once.
	h.ring.Begin(obs.KHierLeader, -1, uint32(len(leaders)))
	li, L := gi, len(leaders)
	atRoot := true
	for mask := 1; mask < L; mask <<= 1 {
		if li&mask != 0 {
			if err := h.wire.sendFragmented(leaders[li-mask], hHierGather, key, blob); err != nil {
				return nil, err
			}
			atRoot = false
			break
		}
		if child := li + mask; child < L {
			w.n = leaders[child]
			if err := h.await(w, h.preds.blobIn, 0); err != nil {
				return nil, err
			}
			byChild := h.treeBlobs[key]
			blob = append(blob, byChild[w.n]...)
			delete(byChild, w.n)
		}
	}
	if byChild, ok := h.treeBlobs[key]; ok && len(byChild) == 0 {
		delete(h.treeBlobs, key)
		h.giveBack(byChild)
	}
	p.blob = blob

	var enc []byte
	if atRoot {
		if enc, err = p.table(key, members, blob); err != nil {
			return nil, err
		}
	} else {
		// Only the parent's frame ends this wait: park at once.
		if err := h.await(w, h.preds.treeTableIn, 0); err != nil {
			return nil, err
		}
		enc = h.hierTable[key]
		delete(h.hierTable, key)
	}
	h.ring.End(obs.KHierLeader)
	h.ring.Begin(obs.KHierRel, -1, uint32(len(enc)))

	// Binomial broadcast of the table down the leader tree, then local
	// distribution. Children descend from the highest offset so the far
	// half of the tree starts earliest.
	low := bits.Len(uint(L - 1)) // ceil(log2 L)
	if li != 0 {
		low = bits.TrailingZeros(uint(li))
	}
	for k := low - 1; k >= 0; k-- {
		if child := li + 1<<k; child < L {
			if err := h.wire.sendFragmented(leaders[child], hHierTable, key, enc); err != nil {
				return nil, err
			}
		}
	}
	for _, m := range group[1:] {
		h.shm.Send(h.localIdx[m], shmTeamTable, key, enc)
	}
	// Nothing downstream is guaranteed to block; ship the frames now.
	h.wire.flush()
	h.ring.End(obs.KHierRel)
	return decodeParts(enc, len(members))
}

// TeamBarrier: locals arrive at their leader over shm; leaders run a
// dissemination barrier (ceil(log2 L) rounds, each leader passing a
// token 2^r places around the leader ring); leaders release locals.
func (h *HierConduit) TeamBarrier(key uint64, members []int) error {
	p, gi := h.partition(members)
	defer func() { h.part = p }()
	group, leaders := p.groups[gi], p.leaders
	w := hierWait{key: key}

	if h.me != group[0] {
		h.shm.Send(h.localIdx[group[0]], shmBarArrive, key, nil)
		err := h.await(w, h.preds.released, h.memberPolls(len(leaders)))
		delete(h.barRelease, key)
		return err
	}

	if len(group) > 1 {
		h.ring.Begin(obs.KHierLocal, -1, uint32(len(group)))
		w.n = len(group) - 1
		err := h.await(w, h.preds.arrived, h.polls)
		h.ring.End(obs.KHierLocal)
		delete(h.barLocal, key)
		if err != nil {
			return err
		}
	}

	// Only another leader's token ends a round's wait: park at once.
	li, L := gi, len(leaders)
	h.ring.Begin(obs.KHierLeader, -1, uint32(L))
	for round, dist := 0, 1; dist < L; round, dist = round+1, dist<<1 {
		tok := frames.Get(8)
		putU64(tok, uint64(round))
		if err := h.wire.sendOwned(transport.Message{
			To: int32(leaders[(li+dist)%L]), Handler: hHierBar, Arg: key, Payload: tok,
		}); err != nil {
			return err
		}
		w.round = round
		if err := h.await(w, h.preds.tokenIn, 0); err != nil {
			return err
		}
		bk := hierBarKey{key: key, round: round}
		if h.barWire[bk]--; h.barWire[bk] == 0 {
			delete(h.barWire, bk)
		}
	}

	h.ring.End(obs.KHierLeader)

	h.ring.Begin(obs.KHierRel, -1, uint32(len(group)-1))
	for _, m := range group[1:] {
		h.shm.Send(h.localIdx[m], shmBarRelease, key, nil)
	}
	h.wire.flush()
	h.ring.End(obs.KHierRel)
	return nil
}

// ---- Collective handlers ----

func (h *HierConduit) onHierGather(m transport.Message) {
	if full, done := h.wire.reassemble(h.treeFrags, m); done {
		byRank := h.treeBlobs[m.Arg]
		if byRank == nil {
			byRank = h.byRank()
			h.treeBlobs[m.Arg] = byRank
		}
		byRank[int(m.From)] = full
	}
}

func (h *HierConduit) onHierTable(m transport.Message) {
	if full, done := h.wire.reassemble(h.tableFrags, m); done {
		h.hierTable[m.Arg] = full
	}
}

func (h *HierConduit) onHierBar(m transport.Message) {
	if len(m.Payload) != 8 {
		h.wire.severMalformed(m, fmt.Errorf("%d-byte payload, want 8", len(m.Payload)))
		return
	}
	h.barWire[hierBarKey{key: m.Arg, round: int(u64(m.Payload))}]++
}

func (h *HierConduit) onShmTeamContrib(from int, key uint64, payload []byte) {
	h.depositLocal(key, h.locals[from], payload)
}

func (h *HierConduit) onShmTeamTable(from int, key uint64, payload []byte) {
	h.localTable[key] = payload
}

func (h *HierConduit) onShmBarArrive(from int, key uint64, _ []byte) {
	h.barLocal[key]++
}

func (h *HierConduit) onShmBarRelease(from int, key uint64, _ []byte) {
	h.barRelease[key] = true
}
