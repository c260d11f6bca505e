package sim

// Model combines a Machine, a software profile and a job size into the
// charges the runtime makes against per-rank virtual clocks, and is the
// only place a LogGP formula is written: each exported method is one
// runtime operation returning its whole charge or arrival time
// (DESIGN.md §4 tabulates them). Operand order is part of a formula:
// t + (L + nG) and (t + L) + nG are different float64 values. A Model
// is immutable after construction and safe for concurrent use.
type Model struct {
	M     Machine
	SW    SW
	Ranks int

	oneWay float64 // precomputed inter-node one-way latency for this job size
	perB   float64 // per-byte wire cost (ns/byte)
}

// NewModel builds the cost model for a job of the given size.
func NewModel(m Machine, sw SW, ranks int) *Model {
	perB := 0.0
	if m.BytesPerNs > 0 {
		perB = 1 / m.BytesPerNs
	}
	return &Model{
		M:      m,
		SW:     sw,
		Ranks:  ranks,
		oneWay: m.OneWayNs(m.Nodes(ranks)),
		perB:   perB,
	}
}

// NoCost is the model of a wire or hierarchical job, whose only time
// base is the wall clock: every charge is zero and every arrival is its
// send time, so virtual time moves only by what the program charges
// itself (Rank.Lapse).
func NoCost(ranks int) *Model { return NewModel(Machine{}, SW{}, ranks) }

// GetCost is the full blocking cost of a one-sided read of n bytes from
// rank `from` by rank `by`: software overhead + request latency +
// payload return.
func (mo *Model) GetCost(by, from, n int) float64 {
	if by == from {
		return mo.localAccess(n)
	}
	l := mo.lat(by, from)
	return mo.SW.GetNs + 2*l + mo.wireNs(n)
}

// PutCost is the full blocking cost of a one-sided write of n bytes
// (remote completion acknowledged, as for a fenced put).
func (mo *Model) PutCost(by, to, n int) float64 {
	if by == to {
		return mo.localAccess(n)
	}
	l := mo.lat(by, to)
	return mo.SW.PutNs + 2*l + mo.wireNs(n)
}

// CopyCost is the blocking cost to `by` of copying n bytes from src to
// dst: a get, a put, or a get then a put staged through `by`.
func (mo *Model) CopyCost(by, src, dst, n int) float64 {
	switch {
	case dst == by:
		return mo.GetCost(by, src, n)
	case src == by:
		return mo.PutCost(by, dst, n)
	}
	return mo.GetCost(by, src, n) + mo.PutCost(by, dst, n)
}

// NBInitCost is the initiation cost of a non-blocking one-sided transfer.
func (mo *Model) NBInitCost() float64 { return mo.SW.PutNs + mo.M.GapNs }

// NBDone is the completion time of a non-blocking transfer of n bytes
// between `by` and peer whose initiation ended at t.
func (mo *Model) NBDone(t float64, by, peer, n int) float64 {
	if by == peer {
		return t + mo.localAccess(n)
	}
	return t + (mo.lat(by, peer) + mo.wireNs(n))
}

// SharedAccessCost is the address-translation overhead of one
// shared-array element access in the active software profile.
func (mo *Model) SharedAccessCost() float64 { return mo.SW.SharedAccessNs }

// AMSend is the injection of an active message of n bytes begun at t0:
// the sender's occupancy, and the arrival at `to`, counted from t0
// because o and nG overlap the wire (LogGP).
func (mo *Model) AMSend(t0 float64, from, to, n int) (cost, arrival float64) {
	// wireNs(n), spelled out: with the call AMSend is over the inliner's
	// budget, and every task launch calls it.
	w := float64(n) * mo.perB
	return mo.SW.AMNs + mo.M.GapNs + w, t0 + mo.SW.AMNs + mo.lat(from, to) + w
}

// Arrival is the time at `to` of n bytes `from` sends at t with no
// overhead of its own (a reply, a deferred launch, a pushed array
// section); a notification is n = 0.
func (mo *Model) Arrival(t float64, from, to, n int) float64 {
	return t + mo.lat(from, to) + mo.wireNs(n)
}

// TaskDispatchCost is the target's cost of dispatching one async task.
func (mo *Model) TaskDispatchCost() float64 { return mo.SW.TaskNs }

// BarrierRelease is the time the job-wide dissemination barrier
// releases its ranks, given the latest entry time.
func (mo *Model) BarrierRelease(latest float64) float64 {
	stages := log2ceil(mo.Ranks)
	if stages == 0 {
		return latest + mo.SW.BarrierPerStageNs
	}
	return latest + float64(stages)*(mo.oneWayForColl()+mo.SW.BarrierPerStageNs)
}

// TeamBarrierCost is the cost of a barrier over a team of m ranks. It
// and the collectives below run ceil(log2 m) tree stages (collStage).
func (mo *Model) TeamBarrierCost(m int) float64 {
	return float64(log2ceil(m)) * mo.collStage(0)
}

// BroadcastCost is the cost of broadcasting n bytes over m ranks.
func (mo *Model) BroadcastCost(m, n int) float64 {
	return float64(log2ceil(m)) * mo.collStage(n)
}

// AllGatherCost is the cost of gathering n bytes from each of m ranks
// to all: the tree plus the per-peer wire time of the result.
func (mo *Model) AllGatherCost(m, n int) float64 {
	return float64(log2ceil(m))*mo.collStage(n) + float64(m-1)*mo.wireNs(n)
}

// AllReduceCost is the cost of an n-byte allreduce: a tree up and down.
func (mo *Model) AllReduceCost(m, n int) float64 {
	return 2 * float64(log2ceil(m)) * mo.collStage(n)
}

// ReduceSlicesCost is the cost of the pipelined reduction of n-byte
// slices over m ranks: the latency stages plus twice the wire time.
func (mo *Model) ReduceSlicesCost(m, n int) float64 {
	return float64(log2ceil(m))*mo.collStage(0) + 2*mo.wireNs(n)
}

// FlopsCost is the time to execute n flops at peak split across `ways`
// node-local workers (at least 1).
func (mo *Model) FlopsCost(n float64, ways int) float64 {
	if mo.M.PeakFlopsPerNs <= 0 {
		return 0
	}
	return n / mo.M.PeakFlopsPerNs / float64(max(ways, 1))
}

// MemCost is the time to move n bytes through one core's memory.
func (mo *Model) MemCost(n float64) float64 {
	if mo.M.MemBytesPerNs <= 0 {
		return 0
	}
	return n / mo.M.MemBytesPerNs
}

// TwoSidedMatchCost is the two-sided (MPI) per-message matching cost.
func (mo *Model) TwoSidedMatchCost() float64 { return mo.SW.TwoSidedNs }

// EagerThreshold reports the machine's eager/rendezvous protocol switch.
func (mo *Model) EagerThreshold() int { return mo.M.EagerBytes }

// EagerSendDone is the local completion of an eager send injected at t.
func (mo *Model) EagerSendDone(t float64) float64 { return t + mo.NBInitCost() }

// RecvDone is the completion of a receive of n bytes matched at t: a
// rendezvous adds the CTS round trip and the bulk transfer, a parked
// unexpected payload its copy out.
func (mo *Model) RecvDone(t float64, sender, receiver, n int, rendezvous, parked bool) float64 {
	copyCost := 0.0
	if parked {
		copyCost = mo.MemCost(float64(n))
	}
	if rendezvous {
		l := mo.lat(sender, receiver)
		return t + 2*l + mo.wireNs(n) + mo.SW.TwoSidedNs + copyCost
	}
	return t + mo.SW.TwoSidedNs + copyCost
}

// lat is the one-way latency from rank a to rank b.
func (mo *Model) lat(a, b int) float64 {
	if a == b {
		return 0
	}
	if mo.M.Node(a) == mo.M.Node(b) {
		return mo.M.IntraNodeNs
	}
	return mo.oneWay
}

func (mo *Model) wireNs(n int) float64 { return float64(n) * mo.perB }

func (mo *Model) localAccess(n int) float64 {
	if mo.M.MemBytesPerNs <= 0 {
		return 0
	}
	return float64(n) / (2 * mo.M.MemBytesPerNs)
}

// collStage is one stage of a collective tree carrying n bytes.
func (mo *Model) collStage(n int) float64 {
	return mo.oneWayForColl() + mo.SW.BarrierPerStageNs + mo.wireNs(n)
}

// oneWayForColl is the inter-node latency once the job spans nodes.
func (mo *Model) oneWayForColl() float64 {
	if mo.M.Nodes(mo.Ranks) > 1 {
		return mo.oneWay
	}
	return mo.M.IntraNodeNs
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	s := 0
	for v := n - 1; v > 0; v >>= 1 {
		s++
	}
	return s
}
