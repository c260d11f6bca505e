package sim

// Model combines a Machine, a software profile and a job size into the
// cost functions the runtime charges against per-rank virtual clocks.
// A Model is immutable after construction and safe for concurrent use.
type Model struct {
	Virtual bool
	M       Machine
	SW      SW
	Ranks   int

	oneWay float64 // precomputed inter-node one-way latency for this job size
	perB   float64 // per-byte wire cost (ns/byte)
}

// NewModel builds the cost model for a job of the given size. If virtual is
// false all charge functions still compute costs (so counters and event
// completion times remain meaningful) but clocks track only explicitly
// charged time; the harness then uses wall-clock time instead.
func NewModel(virtual bool, m Machine, sw SW, ranks int) *Model {
	perB := 0.0
	if m.BytesPerNs > 0 {
		perB = 1 / m.BytesPerNs
	}
	return &Model{
		Virtual: virtual,
		M:       m,
		SW:      sw,
		Ranks:   ranks,
		oneWay:  m.OneWayNs(m.Nodes(ranks)),
		perB:    perB,
	}
}

// NoCost is the model of a job whose only time base is the wall clock —
// a wire or hierarchical job, whose ranks' virtual clocks nobody can
// merge across address spaces: every charge is zero, so Clock.Advance
// returns before its store and virtual time moves only by what the
// program charges itself (Rank.Lapse).
func NoCost(ranks int) *Model { return NewModel(false, Machine{}, SW{}, ranks) }

// Lat returns the modeled one-way latency in nanoseconds from rank a to
// rank b (intra-node if they share a node, zero if they are the same rank).
func (mo *Model) Lat(a, b int) float64 {
	if a == b {
		return 0
	}
	if mo.M.Node(a) == mo.M.Node(b) {
		return mo.M.IntraNodeNs
	}
	return mo.oneWay
}

// WireNs returns the per-byte serialization time for a payload of n bytes.
func (mo *Model) WireNs(n int) float64 { return float64(n) * mo.perB }

// GetCost returns the full blocking cost of a one-sided read of n bytes
// from rank `from` by rank `by`: software overhead + request latency +
// payload return.
func (mo *Model) GetCost(by, from, n int) float64 {
	if by == from {
		return mo.localAccess(n)
	}
	l := mo.Lat(by, from)
	return mo.SW.GetNs + 2*l + mo.WireNs(n)
}

// PutCost returns the full blocking cost of a one-sided write of n bytes
// (remote completion acknowledged, as for a fenced put).
func (mo *Model) PutCost(by, to, n int) float64 {
	if by == to {
		return mo.localAccess(n)
	}
	l := mo.Lat(by, to)
	return mo.SW.PutNs + 2*l + mo.WireNs(n)
}

// NBInitCost is the initiation (CPU) cost of a non-blocking one-sided
// operation; the transfer itself completes NBCompleteCost later.
func (mo *Model) NBInitCost() float64 { return mo.SW.PutNs + mo.M.GapNs }

// NBCompleteCost returns the time after initiation at which a non-blocking
// transfer of n bytes to/from the given peer completes.
func (mo *Model) NBCompleteCost(by, peer, n int) float64 {
	if by == peer {
		return mo.localAccess(n)
	}
	return mo.Lat(by, peer) + mo.WireNs(n)
}

// localAccess models a purely local memory copy of n bytes.
func (mo *Model) localAccess(n int) float64 {
	if mo.M.MemBytesPerNs <= 0 {
		return 0
	}
	return float64(n) / (2 * mo.M.MemBytesPerNs)
}

// SharedAccessCost is the address-translation overhead of one shared-array
// element access in the active software profile.
func (mo *Model) SharedAccessCost() float64 { return mo.SW.SharedAccessNs }

// AMSendCost is the initiator-side cost of injecting one active message
// carrying n payload bytes.
func (mo *Model) AMSendCost(n int) float64 {
	return mo.SW.AMNs + mo.M.GapNs + mo.WireNs(n)
}

// AMArrival returns the virtual arrival time at the target of an active
// message whose injection began at time t0 with n payload bytes:
// t0 + send overhead + latency + serialization. Callers must pass the
// clock value from *before* charging AMSendCost, which models sender
// occupancy over the same interval (LogGP: o and nG overlap the wire).
func (mo *Model) AMArrival(t0 float64, from, to, n int) float64 {
	return t0 + mo.SW.AMNs + mo.Lat(from, to) + mo.WireNs(n)
}

// TaskDispatchCost is the target-side cost of dequeuing and dispatching one
// async task.
func (mo *Model) TaskDispatchCost() float64 { return mo.SW.TaskNs }

// TwoSidedMatchCost is the per-message matching overhead of the two-sided
// baseline (zero for one-sided profiles).
func (mo *Model) TwoSidedMatchCost() float64 { return mo.SW.TwoSidedNs }

// BarrierCost returns the cost of a dissemination barrier over P ranks,
// entered with all clocks already advanced to the barrier point.
func (mo *Model) BarrierCost() float64 {
	stages := log2ceil(mo.Ranks)
	if stages == 0 {
		return mo.SW.BarrierPerStageNs
	}
	return float64(stages) * (mo.oneWayForColl() + mo.SW.BarrierPerStageNs)
}

// CollStageCost is the per-stage cost of a log2(P)-stage collective tree
// moving n bytes per stage (used for broadcast/reduce/gather trees).
func (mo *Model) CollStageCost(n int) float64 {
	return mo.oneWayForColl() + mo.SW.BarrierPerStageNs + mo.WireNs(n)
}

// CollStages returns the number of stages in a binomial collective tree.
func (mo *Model) CollStages() int { return log2ceil(mo.Ranks) }

// oneWayForColl uses the inter-node latency when the job spans more than
// one node, otherwise the intra-node latency.
func (mo *Model) oneWayForColl() float64 {
	if mo.M.Nodes(mo.Ranks) > 1 {
		return mo.oneWay
	}
	return mo.M.IntraNodeNs
}

// FlopsCost returns the modeled time to execute n floating-point operations
// at peak on one core.
func (mo *Model) FlopsCost(n float64) float64 {
	if mo.M.PeakFlopsPerNs <= 0 {
		return 0
	}
	return n / mo.M.PeakFlopsPerNs
}

// MemCost returns the modeled time to move n bytes through one core's
// memory system (for memory-bound kernels).
func (mo *Model) MemCost(n float64) float64 {
	if mo.M.MemBytesPerNs <= 0 {
		return 0
	}
	return n / mo.M.MemBytesPerNs
}

// EagerThreshold reports the machine's eager/rendezvous protocol switch.
func (mo *Model) EagerThreshold() int { return mo.M.EagerBytes }

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
