package svc

import (
	"upcxx/internal/core"
	"upcxx/internal/dht"
	"upcxx/internal/obs"
)

// SPMD wiring shared by every way a gateway job is assembled — the
// upcxx-gate binary + gateserve compute ranks under upcxx-run, the
// benchmark's gate_kv fleet, and the drain and chaos tests. The
// topology is one resilient wire job of n+1 ranks: ranks 0..n-1 run
// ServeMain (full DHT members parked in progress, serving shard
// traffic), rank n runs GatewayMain (also a full DHT member,
// additionally pumping the DHTStore op queue). One topology, one
// capacity formula, one control protocol — computed here so the sides
// can never disagree.

// CtlHandler is the gateway's control AM id: the gateway broadcasts it
// to the compute ranks when it has drained, releasing them from their
// serve park into the final collective. Outside the runtime-reserved
// range (< 0x10) and clear of the DHT's 0x20–0x22.
const CtlHandler uint16 = 0x30

// GateReplicas is the job's replication factor: K=2 — every key
// survives one rank death, which is the service's durability promise.
const GateReplicas = 2

// DefaultGateScale is the default capacity knob: the number of
// distinct keys the job is provisioned for.
const DefaultGateScale = 1 << 16

// GateCapacity returns each rank's shard capacity for a job
// provisioned for `scale` distinct keys: K replicas of the key
// population spread over the ranks, with DefaultCapacity's 4x
// open-addressing headroom on top. Every rank (gateway included) must
// compute the identical value — it is a pure function of (ranks,
// scale) so they do.
func GateCapacity(ranks, scale int) int {
	if scale <= 0 {
		scale = DefaultGateScale
	}
	per := GateReplicas*scale/ranks + 16
	return dht.DefaultCapacity(per)
}

// GateSegBytes sizes each rank's shared segment for the same job.
func GateSegBytes(ranks, scale int) int {
	return dht.SegBytes(GateCapacity(ranks, scale))
}

// ServeMain is the compute-rank body: join the replicated table, then
// park in progress — serving DHT traffic the whole time — until the
// gateway's drain broadcast, and close with the collective checksum
// (identical on every surviving rank, which is how heterogeneous jobs
// keep the launcher's cross-rank verification).
func ServeMain(me *core.Rank, scale int) uint64 {
	stopped := false
	core.RegisterAMHandler(me, CtlHandler, func(me *core.Rank, from int, _ []byte) {
		obs.Logf(1, me.ID(), "svc: drain broadcast from rank %d", from)
		stopped = true
	})
	tbl := dht.NewWithConfig(me, GateCapacity(me.Ranks(), scale),
		dht.Config{Replicas: GateReplicas, ReadRepair: true})
	me.WaitUntil(func() bool { return stopped })
	return tbl.Checksum(me)
}

// GatewayMain is the gateway-rank body: join the same table, pump the
// store's op queue until Stop drains it, broadcast the release to the
// surviving compute ranks, and join the same closing checksum. The
// caller (the upcxx-gate binary, or a test) owns the HTTP side; this
// body owns everything that must happen on the SPMD goroutine.
func GatewayMain(me *core.Rank, st *DHTStore, scale int) uint64 {
	tbl := dht.NewWithConfig(me, GateCapacity(me.Ranks(), scale),
		dht.Config{Replicas: GateReplicas, ReadRepair: true})
	removeSrc := obs.Reg().AddSource(me.ID(), func() map[string]int64 {
		out := make(map[string]int64)
		for k, v := range st.Counters() {
			out[k] = int64(v)
		}
		return out
	})
	defer removeSrc()

	st.Serve(me, tbl) // returns once Stop() has been called and the queue drained

	for r := 0; r < me.Ranks(); r++ {
		if r == me.ID() || !me.RankAlive(r) {
			continue
		}
		core.AggSend(me, r, CtlHandler, []byte{1}, nil)
	}
	core.AggFlush(me)
	obs.Logf(1, me.ID(), "svc: drained, released %d compute ranks", me.Ranks()-1)
	return tbl.Checksum(me)
}
