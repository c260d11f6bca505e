package workload

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"upcxx/benchmark/measure"
	"upcxx/benchmark/sut"
)

// Layer probes: small measurements of one layer each, taken from
// outside through the same public calls the workloads use. A probe runs
// in the traced run of the workload it explains (probeGroups), after
// the workload's own mesh is gone, on a scratch mesh of the same shape
// so that its counters hold only its own traffic. A probe is sized to
// take about a tenth of a second: it locates a layer's cost to within a
// few percent, which is enough to say which layer a change moved; it is
// not an end-to-end number and is not gated.

// calls is how many times p50(n, fn) calls fn: n timed calls after a
// tenth as many to warm up. Peers of a collective probe and per-call
// counter ratios need the total.
func calls(n int) int { return n + n/10 }

// p50 calls fn calls(n) times and returns the median duration of the
// last n in nanoseconds.
func p50(n int, fn func()) float64 {
	for i := n; i < calls(n); i++ {
		fn()
	}
	lat := make([]int64, n)
	for i := range lat {
		t0 := time.Now()
		fn()
		lat[i] = int64(time.Since(t0))
	}
	slices.Sort(lat)
	return float64(measure.Quantile(lat, 0.5))
}

// perOp times five rounds of n back-to-back calls and returns the
// median round's nanoseconds per call: for calls too short to time one
// by one.
func perOp(n int, fn func()) float64 {
	rounds := make([]float64, 5)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds[r] = float64(time.Since(t0)) / float64(n)
	}
	return measure.Median(rounds)
}

func sum(stats []sut.Stats, counter string) float64 {
	var s float64
	for _, st := range stats {
		s += st.Counters[counter]
	}
	return s
}

// probeSet collects probe results; a probe that cannot run records the
// error and leaves its metrics at zero.
type probeSet struct {
	m    map[string]Metric
	errs []error
}

func (ps *probeSet) set(name string, v float64, unit string) { ps.m[name] = Metric{v, unit} }
func (ps *probeSet) us(name string, ns float64)              { ps.set(name, ns/1e3, "us") }
func (ps *probeSet) ns(name string, ns float64)              { ps.set(name, ns, "ns") }
func (ps *probeSet) check(what string, err error) bool {
	if err != nil {
		ps.errs = append(ps.errs, fmt.Errorf("%s: %w", what, err))
	}
	return err == nil
}

// probeGroups says which probes run in which workload's traced run:
// the layers that do that workload's work.
var probeGroups = map[string][]func(*probeSet, int){
	"gate_kv":        {(*probeSet).svcStub, (*probeSet).svcLive, (*probeSet).dhtProc, (*probeSet).dhtWire},
	"rpc_storm":      {(*probeSet).coreLocal, (*probeSet).rpcEpochs, (*probeSet).rpcRoundTrip, (*probeSet).codecAgg},
	"onesided_small": {(*probeSet).wireSmall, (*probeSet).transportSmall},
	"onesided_bulk":  {(*probeSet).wireBulk, (*probeSet).transportBulk},
	"coll_hier":      {(*probeSet).collectives, (*probeSet).shmPut},
}

// PerLayer returns what the traced run of the named workload measured:
// the benchmark's own view of the window, the probes of the layers that
// explain the workload, and the budget fractions those allow. A metric
// of LayerDefs that is missing belongs to another workload's traced run.
func (r *Result) PerLayer(name string, quick bool) (map[string]Metric, []error) {
	ps := &probeSet{m: r.ClientView()}
	n := 2000 // round trips per latency probe
	if quick {
		n = 200
	}
	ps.pools(n)
	for _, probe := range probeGroups[name] {
		probe(ps, n)
	}
	m := ps.m
	// What the stub round trip and the store calls leave unexplained of
	// the loaded gateway's median request; with two workers that share
	// includes queueing behind the other one.
	if p50 := float64(measure.Quantile(r.All, 0.5)) / 1e3; name == "gate_kv" && p50 > 0 {
		explained := m["svc.http_stub_rtt_us"].Value + (m["svc.store_put_us"].Value+m["svc.store_get_us"].Value)/2
		ps.set("budget.gate_unexplained_frac", 1-explained/p50, "frac")
	}
	if d := m["gasnet.wire_put8_us"].Value; d > 0 {
		ps.set("budget.small_unexplained_frac", 1-m["transport.loopback_rtt8_us"].Value/d, "frac")
	}
	return m, ps.errs
}

// ---- svc ----

// stubStore answers at once: what is left is the service plane itself.
type stubStore struct{}

func (stubStore) Put(context.Context, string, uint64) error { return nil }
func (stubStore) Get(context.Context, string) (uint64, bool, error) {
	return 42, true, nil
}
func (stubStore) PutBatch(_ context.Context, keys []string, _ []uint64) []error {
	return make([]error, len(keys))
}
func (stubStore) GetBatch(_ context.Context, keys []string) []sut.GetResult {
	return make([]sut.GetResult, len(keys))
}
func (stubStore) Ready() bool { return true }

// httpPair alternates PUT and GET of one key over one keep-alive
// connection and returns the median round trip.
func httpPair(n int, base string) float64 {
	c := newHTTPClient(1)
	defer c.CloseIdleConnections()
	i := 0
	return p50(n, func() {
		var req *http.Request
		if i++; i%2 == 0 {
			req, _ = http.NewRequest(http.MethodPut, base+"/kv/probe", strings.NewReader("42"))
		} else {
			req, _ = http.NewRequest(http.MethodGet, base+"/kv/probe", nil)
		}
		if resp, err := c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// svcStub measures the production mux over a store that answers at
// once: in-process through a recorder (parse, routing, admission,
// encoding) and over a real loopback server (plus net/http and the
// socket).
func (ps *probeSet) svcStub(n int) {
	h := sut.Handler(sut.NewService(stubStore{}, sut.SvcConfig{}))
	ps.us("svc.handler_stub_put_us", perOp(n, func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPut, "/kv/probe", strings.NewReader("42")))
	}))
	ps.us("svc.handler_stub_get_us", perOp(n, func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/kv/probe", nil))
	}))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if !ps.check("svc stub listen", err) {
		return
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() { defer close(served); _ = srv.Serve(ln) }()
	ps.us("svc.http_stub_rtt_us", httpPair(n, "http://"+ln.Addr().String()))
	srv.Close()
	<-served
}

// svcLive measures the store adapter on a live gateway mesh: op queue,
// wake, dht, wire, everything below the HTTP layer.
func (ps *probeSet) svcLive(n int) {
	const keys = 4096
	job, err := startGate(keys)
	if !ps.check("svc live mesh", err) {
		return
	}
	ctx := context.Background()
	i := 0
	key := func() string { i++; return "p" + strconv.Itoa(i%keys) }
	ps.us("svc.store_put_us", p50(n, func() { _ = job.st.Put(ctx, key(), 7) }))
	ps.us("svc.store_get_us", p50(n, func() { _, _, _ = job.st.Get(ctx, key()) }))
	batchKeys, batchVals := make([]string, 64), make([]uint64, 64)
	ps.us("svc.batch64_us_per_key", p50(n/10, func() {
		for j := range batchKeys {
			batchKeys[j] = key()
		}
		job.st.PutBatch(ctx, batchKeys, batchVals)
	})/64)
	_, err = job.stop()
	ps.check("svc live mesh", err)
}

// ---- dht ----

func probeKey(i int) uint64 { return mix64(uint64(i))<<1 | 1 }

// dhtProc measures the table on the in-process backend: hashing,
// bucket probing and the completion machinery with no wire under it.
func (ps *probeSet) dhtProc(n int) {
	n *= 10
	sut.RunProc(sut.Config{Ranks: 2, SegmentBytes: sut.TableSegBytes(sut.TableCapacity(n))}, func(me *sut.Rank) {
		tbl := sut.NewTable(me, sut.TableCapacity(n), sut.DHTConfig{})
		if me.ID() == 0 {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				tbl.Insert(me, probeKey(i), uint64(i), nil)
			}
			ps.ns("dht.proc_insert_ns", float64(time.Since(t0))/float64(n))
		}
		me.Barrier()
		if me.ID() == 0 {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				tbl.Lookup(me, probeKey(i)).Wait(me)
			}
			ps.ns("dht.proc_lookup_ns", float64(time.Since(t0))/float64(n))
		}
		me.Barrier()
	})
}

// dhtWire measures one acknowledged K=2 insert and one lookup issued
// from a compute rank of a three-rank wire mesh, and what they cost in
// frames and read-repairs.
func (ps *probeSet) dhtWire(n int) {
	capacity := sut.TableCapacity(2 * n)
	var repairs atomic.Int64
	stats, err := sut.RunWireLocal(3, sut.TableSegBytes(capacity), sut.Config{Resilient: true}, func(me *sut.Rank) {
		tbl := sut.NewTable(me, capacity, sut.DHTConfig{Replicas: sut.GateReplicas, ReadRepair: true})
		if me.ID() == 0 {
			i := 0
			ps.us("dht.wire_insert_us", p50(n, func() { i++; sut.InsertAcked(me, tbl, probeKey(i), uint64(i)) }))
			i = 0
			ps.us("dht.wire_lookup_us", p50(n, func() { i++; tbl.Lookup(me, probeKey(i)).Wait(me) }))
		}
		me.Barrier()
		repairs.Add(int64(tbl.Counters()["dht_repairs"]))
	})
	if !ps.check("dht wire mesh", err) {
		return
	}
	ops := float64(2 * calls(n)) // inserts, then lookups
	ps.set("dht.frames_per_op", sum(stats, "wire_tx_frames")/ops, "count")
	ps.set("dht.repairs_per_kop", float64(repairs.Load())/ops*1000, "count")
}

// ---- core, rpc ----

var echoTask = sut.RegisterTask("upcxx-perf.echo", func(_ *sut.Rank, _ int, args []byte) []byte { return args })

// coreLocal measures the task and future machinery with no
// communication: a Finish around one self-targeted task, and one
// continuation on a resolved future.
func (ps *probeSet) coreLocal(n int) {
	sut.RunProc(sut.Config{Ranks: 1}, func(me *sut.Rank) {
		self := sut.On(0)
		ps.ns("core.finish_local_ns", perOp(n, func() {
			sut.Finish(me, func() { sut.AsyncTask(me, self, echoTask, nil) })
		}))
		var sink uint64
		ps.ns("core.future_then_ns", perOp(n, func() { sink += sut.ThenGet(me, sink) }))
	})
}

// rpcEpochs runs a few storm epochs on a mesh of their own: the issue
// cost per task, the share of an epoch spent draining after the last
// issue, and frames and heap allocations per RPC.
func (ps *probeSet) rpcEpochs(n int) {
	const epochs = 5
	perEpoch := 10 * n
	var issue, drain, whole time.Duration
	var mallocs uint64
	var tl tally
	stats, err := sut.RunWireLocal(2, 1<<17, sut.Config{Agg: sut.AggConfig{Adaptive: true}}, func(me *sut.Rank) {
		cell := sut.Allocate(me, me.ID(), 1)
		sut.Write(me, cell, 0)
		cells := sut.AllGatherPtr(me.World(), cell)
		me.Barrier()
		var want uint64
		var ms0, ms1 runtime.MemStats
		if me.ID() == 0 {
			runtime.ReadMemStats(&ms0)
		}
		for e := uint64(0); e < epochs; e++ {
			t0, issued, t1 := stormEpoch(me, 1, perEpoch, e, cells, &want, &tl)
			if me.ID() == 0 {
				issue += issued.Sub(t0)
				drain += t1.Sub(issued)
				whole += t1.Sub(t0)
			}
		}
		if me.ID() == 0 {
			runtime.ReadMemStats(&ms1)
			mallocs = ms1.Mallocs - ms0.Mallocs
		}
	})
	if !ps.check("rpc epoch mesh", err) {
		return
	}
	if tl.failed.Load() > 0 {
		ps.check("rpc epoch mesh", fmt.Errorf("%d epochs folded wrong", tl.failed.Load()))
	}
	rpcs := float64(2 * epochs * perEpoch)
	ps.ns("core.task_issue_ns", float64(issue)/float64(epochs*perEpoch))
	ps.set("core.finish_drain_frac", float64(drain)/float64(whole), "frac")
	ps.set("rpc.frames_per_rpc", sum(stats, "wire_tx_frames")/rpcs, "count")
	ps.set("rpc.allocs_per_rpc", float64(mallocs)/rpcs, "count")
}

// rpcRoundTrip measures one idle AsyncTaskFuture.Get: the latency use
// of the layer the storm uses for throughput.
func (ps *probeSet) rpcRoundTrip(n int) {
	_, err := sut.RunWireLocal(2, 1<<17, sut.Config{Agg: sut.AggConfig{Adaptive: true}}, func(me *sut.Rank) {
		if me.ID() == 0 {
			args := sut.U64s(1, 2, 3)
			ps.us("core.rpc_rtt_us", p50(n, func() { sut.RPCRoundTrip(me, 1, echoTask, args) }))
		}
		me.Barrier()
	})
	ps.check("rpc round-trip mesh", err)
}

// codecAgg measures the storm's leaf layers in isolation: the request
// codec and an aggregator append into a flusher that discards.
func (ps *probeSet) codecAgg(n int) {
	n *= 50
	args := sut.U64s(1, 2, 3)
	var sink uint64
	ps.ns("rpc.codec_ns", perOp(n, func() {
		id, _ := sut.DecodeRequest(sut.EncodeRequest(7, args))
		sink += id
	}))
	a := sut.NewAggregator(2, sut.AggConfig{}, func(_ int, batch []byte, _ int, done func()) {
		sut.FramePut(batch)
		done()
	})
	ps.ns("agg.append_ns", perOp(n, func() { a.Xor64(1, 64, 1, nil) }))
	a.FlushAll()
}

// pools measures what every workload's messages pass through: a frame
// pool get/put and a segment alloc/free.
func (ps *probeSet) pools(n int) {
	n *= 50
	ps.ns("frames.getput_ns", perOp(n, func() { sut.FramePut(sut.FrameGet(1024)) }))
	seg := sut.NewSegment(1 << 20)
	ps.ns("segment.alloc_free_ns", perOp(n, func() {
		if off, err := seg.Alloc(64); err == nil {
			_ = seg.Free(off)
		}
	}))
}

// ---- gasnet ----

// wireOnesided runs body at rank 0 of an idle two-rank wire mesh
// against a 32 KiB region of rank 1, and reports the frames one of the
// calls body timed through count cost.
func (ps *probeSet) wireOnesided(body func(me *sut.Rank, p sut.Ptr, count func(n int, fn func()) float64)) {
	total := 0
	count := func(n int, fn func()) float64 { total += calls(n); return p50(n, fn) }
	stats, err := sut.RunWireLocal(2, bulkWords*8+(1<<17), sut.Config{}, func(me *sut.Rank) {
		var mine sut.Ptr
		if me.ID() == 1 {
			mine = sut.Allocate(me, 1, bulkWords)
		}
		p := sut.AllGatherPtr(me.World(), mine)[1]
		me.Barrier()
		if me.ID() == 0 {
			body(me, p, count)
		}
		me.Barrier()
	})
	if ps.check("one-sided mesh", err) {
		ps.set("gasnet.wire_frames_per_op", sum(stats, "wire_tx_frames")/float64(total), "count")
	}
}

// wireSmall measures each blocking 8-byte call onesided_small issues.
func (ps *probeSet) wireSmall(n int) {
	ps.wireOnesided(func(me *sut.Rank, p sut.Ptr, count func(int, func()) float64) {
		ps.us("gasnet.wire_put8_us", count(n, func() { sut.Write(me, p, 1) }))
		ps.us("gasnet.wire_get8_us", count(n, func() { sut.Read(me, p) }))
		ps.us("gasnet.wire_xor64_us", count(n, func() { sut.AtomicXor(me, p, 1) }))
	})
}

// wireBulk measures the two 32 KiB calls onesided_bulk issues.
func (ps *probeSet) wireBulk(n int) {
	ps.wireOnesided(func(me *sut.Rank, p sut.Ptr, count func(int, func()) float64) {
		buf := make([]uint64, bulkWords)
		ps.us("gasnet.wire_put32k_us", count(n/2, func() { sut.WriteSlice(me, p, buf) }))
		ps.us("gasnet.wire_get32k_us", count(n/2, func() { sut.ReadSlice(me, p, buf) }))
	})
}

// barrierP50 returns rank 0's median barrier on the given launcher.
func barrierP50(n int, run func(body func(me *sut.Rank)) error) (float64, error) {
	var v float64
	err := run(func(me *sut.Rank) {
		w := me.World()
		if me.ID() == 0 {
			v = p50(n, w.Barrier)
		} else {
			for i := 0; i < calls(n); i++ {
				w.Barrier()
			}
		}
	})
	return v, err
}

// collectives measures barrier and allgather on the workload's 2x2
// topology with their shm and wire message counts, and the barrier
// alone on the two topologies it is usually compared with: four hosts
// of one rank (no shm) and a flat four-rank wire mesh.
func (ps *probeSet) collectives(n int) {
	n /= 2
	colls := float64(2 * calls(n))
	stats, err := sut.RunHierLocal(collRanks, collPPN, 1<<17, sut.Config{}, func(me *sut.Rank) {
		w := me.World()
		gather := func() { sut.AllGatherU64(w, uint64(me.ID())) }
		if me.ID() == 0 {
			ps.us("gasnet.hier_barrier_2x2_us", p50(n, w.Barrier))
			ps.us("gasnet.hier_allgather_2x2_us", p50(n, gather))
		} else {
			for i := 0; i < calls(n); i++ {
				w.Barrier()
			}
			for i := 0; i < calls(n); i++ {
				gather()
			}
		}
	})
	if ps.check("hier 2x2 mesh", err) {
		ps.set("gasnet.shm_msgs_per_coll", sum(stats, "shm_tx_msgs")/colls, "count")
		ps.set("gasnet.wire_frames_per_coll", sum(stats, "wire_tx_frames")/colls, "count")
	}
	v, err := barrierP50(n, func(body func(*sut.Rank)) error {
		_, err := sut.RunHierLocal(4, 1, 1<<17, sut.Config{}, body)
		return err
	})
	if ps.check("hier 4x1 mesh", err) {
		ps.us("gasnet.hier_barrier_4x1_us", v)
	}
	v, err = barrierP50(n, func(body func(*sut.Rank)) error {
		_, err := sut.RunWireLocal(4, 1<<17, sut.Config{}, body)
		return err
	})
	if ps.check("wire 4 mesh", err) {
		ps.us("gasnet.wire_barrier4_us", v)
	}
}

// shmPut measures an 8-byte put between two ranks of one host: a store
// into the peer's mapped segment, no ring and no wire.
func (ps *probeSet) shmPut(n int) {
	_, err := sut.RunHierLocal(2, 2, 1<<17, sut.Config{}, func(me *sut.Rank) {
		var mine sut.Ptr
		if me.ID() == 1 {
			mine = sut.Allocate(me, 1, 1)
		}
		p := sut.AllGatherPtr(me.World(), mine)[1]
		me.Barrier()
		if me.ID() == 0 {
			ps.ns("gasnet.shm_put8_ns", perOp(10*n, func() { sut.Write(me, p, 1) }))
		}
		me.Barrier()
	})
	ps.check("shm mesh", err)
}

// ---- transport ----

func (ps *probeSet) transportSmall(n int) { ps.transport(n, false) }
func (ps *probeSet) transportBulk(n int)  { ps.transport(n, true) }

// transport measures two bare TCP endpoints with no conduit above
// them: an echo round trip at 32 KiB (bulk), or at 8 bytes together
// with the cost of queueing a frame without flushing it.
func (ps *probeSet) transport(n int, bulk bool) {
	const hPing, hPong, hSink = 5, 6, 7
	eps := make([]*sut.Endpoint, 2)
	addrs := make([]string, 2)
	for i := range eps {
		ep, err := sut.ListenTCP(i, 2, "127.0.0.1:0")
		if !ps.check("transport listen", err) {
			return
		}
		defer ep.Close()
		eps[i], addrs[i] = ep, ep.Addr()
	}
	connected := make(chan error, 1)
	go func() { connected <- eps[1].Connect(addrs) }()
	err0, err1 := eps[0].Connect(addrs), <-connected
	if !ps.check("transport connect", err0) || !ps.check("transport connect", err1) {
		return
	}

	var pongs int
	var sunk atomic.Int64
	var stop atomic.Bool
	eps[1].Register(hPing, func(ep *sut.Endpoint, m sut.Message) {
		_ = ep.Send(sut.Message{To: 0, Handler: hPong, Payload: m.Payload})
		ep.Flush() // the payload is borrowed from the frame being dispatched
	})
	eps[1].Register(hSink, func(*sut.Endpoint, sut.Message) { sunk.Add(1) })
	eps[0].Register(hPong, func(*sut.Endpoint, sut.Message) { pongs++ })
	echoing := make(chan struct{})
	go func() {
		defer close(echoing)
		_ = eps[1].WaitFor(stop.Load)
	}()

	rtt := func(payload []byte) float64 {
		return p50(n, func() {
			want := pongs + 1
			_ = eps[0].Send(sut.Message{To: 1, Handler: hPing, Payload: payload})
			_ = eps[0].WaitFor(func() bool { return pongs >= want })
		})
	}
	if bulk {
		ps.us("transport.loopback_rtt32k_us", rtt(make([]byte, bulkWords*8)))
	} else {
		ps.us("transport.loopback_rtt8_us", rtt(make([]byte, 8)))

		// 1,000 queued 8-byte frames stay under the transport's inline
		// flush threshold, so each round times queueing alone and ships
		// outside the timed stretch.
		const burst = 1000
		small := make([]byte, 8)
		rounds := make([]float64, 5)
		for r := range rounds {
			t0 := time.Now()
			for i := 0; i < burst; i++ {
				_ = eps[0].Send(sut.Message{To: 1, Handler: hSink, Payload: small})
			}
			rounds[r] = float64(time.Since(t0)) / burst
			eps[0].Flush()
		}
		ps.ns("transport.send_ns", measure.Median(rounds))
		for sunk.Load() < int64(len(rounds)*burst) {
			time.Sleep(100 * time.Microsecond)
		}
	}

	stop.Store(true)
	eps[1].Wake()
	<-echoing
	eps[0].Goodbye()
	eps[1].Goodbye()
}
