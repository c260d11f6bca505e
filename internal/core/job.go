// Package core implements the UPC++ programming model of the paper
// "UPC++: A PGAS Extension for C++" (Zheng et al., IPDPS 2014): SPMD
// execution over a partitioned global address space, shared scalars and
// block-cyclic shared arrays, global pointers with phase-free arithmetic,
// dynamic global memory management, one-sided bulk transfers with events,
// asynchronous remote function invocation with futures, X10-style finish,
// event-driven task dependencies, global locks and collectives.
//
// A job is started with Run, which spawns one goroutine per rank (the
// analog of UPC++'s one OS process per rank) and hands each a *Rank
// handle. Go has no per-thread globals, so the handle plays the role of
// MYTHREAD/THREADS and is threaded through all operations; everything else
// follows the paper's API surface closely (see Table I mapping in
// tablei_test.go).
//
// C++ UPC++ expresses typed operations through templates and operator
// overloading; here Go generics carry the types: upcxx.Read[T],
// upcxx.Write[T], upcxx.Allocate[T], SharedArray[T], Future[T].
package core

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"upcxx/internal/agg"
	"upcxx/internal/fault"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/pad"
	"upcxx/internal/segment"
	"upcxx/internal/sim"
)

// ThreadMode selects the runtime's thread-support level, mirroring the
// paper §IV: Serialized (the application promises that each rank's UPC++
// calls are serialized; the runtime skips internal locking) or Concurrent
// (multiple goroutines may call into the same rank handle; the runtime
// serializes internally, like MPI_THREAD_MULTIPLE).
type ThreadMode int

const (
	Serialized ThreadMode = iota
	Concurrent
)

// AccessPath selects how one-sided remote accesses are performed: Direct
// models RDMA (load/store into the peer segment, charged with LogGP put /
// get costs), AMMediated routes every access through an active message
// executed by the target's progress engine (the path networks without
// RDMA, or the paper's BG/Q fine-grained accesses, take). The ablation
// bench compares the two.
type AccessPath int

const (
	Direct AccessPath = iota
	AMMediated
)

// Config describes a job.
type Config struct {
	// Ranks is the number of SPMD ranks (THREADS). Required, >= 1.
	Ranks int
	// SegmentBytes is the per-rank shared segment size. Default 8 MiB.
	SegmentBytes int
	// Machine is the hardware profile for the cost model. Default sim.Local.
	Machine sim.Machine
	// SW is the software-overhead profile. Default sim.SWUPCXX.
	SW sim.SW
	// Virtual enables virtual-time reporting in Stats (an in-process job
	// always charges the cost model; this flag records which time base is
	// authoritative). A wire-backed job runs under sim.NoCost whatever
	// Machine, SW and Virtual say: its only time base is the wall clock.
	Virtual bool
	// Threads selects Serialized (default) or Concurrent mode.
	Threads ThreadMode
	// Access selects Direct (default) or AMMediated one-sided transfers
	// (in-process jobs only; a wire job's accesses are always Direct).
	Access AccessPath
	// Agg sets the message-aggregation flush thresholds for wire-backed
	// jobs (zero fields take internal/agg's defaults; MaxOps = 1 is the
	// "aggregation off" baseline). Ignored on the in-process backend,
	// where the Agg* operations execute immediately.
	Agg agg.Config

	// Nodes is the host topology: Nodes[r] is the host index of rank r,
	// and ranks with equal entries are co-located (they form one local
	// team). Launchers derive it from -procs-per-node and pass the SAME
	// topology on every backend, so LocalTeam membership is
	// backend-independent. When nil, the conduit's own locality
	// knowledge applies (gasnet.LocalityConduit); absent that, the
	// in-process backend places all ranks on one host (they genuinely
	// share an address space) and a wire backend places each rank on
	// its own.
	Nodes []int

	// Resilient opts a wire-backed job into survivable mode: the
	// conduit's heartbeat failure detector runs, a peer's death fails
	// operations addressed to it with typed ErrRankDead (instead of
	// tearing the job down or hanging), and RetryPolicy-equipped
	// operations gain per-attempt reply deadlines. Default off — the
	// paper's failed-process-aborts-the-job model. Ignored in-process
	// except as enabling the chaos death simulation.
	Resilient bool
	// HeartbeatInterval / HeartbeatTimeout tune the failure detector
	// (defaults in gasnet.ResilienceConfig: 50ms / 250ms).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Fault is an injected fault plan for chaos runs (see internal/
	// fault and upcxx-run's -chaos flag); nil for normal operation.
	Fault *fault.Plan
	// ChaosProcessExit lets a kill rule actually exit this process
	// (wire ranks launched by upcxx-run). Off in tests, where an
	// in-process simulated death is wanted instead.
	ChaosProcessExit bool
}

// Wire is what rank's wire conduit is built with under this config: the
// rank's fault injector, and the failure detector whenever the job asks
// for survivable peer loss (Resilient, or a fault plan). A launcher
// builds the flat wire conduit with it; a hierarchical job drops the
// Resilience, since its shm plane has no failure detector.
func (c Config) Wire(rank int) gasnet.WireConfig {
	wc := gasnet.WireConfig{Fault: c.Fault.ForRank(rank)}
	if c.Resilient || c.Fault != nil {
		wc.Resilience = &gasnet.ResilienceConfig{
			HeartbeatInterval: c.HeartbeatInterval,
			HeartbeatTimeout:  c.HeartbeatTimeout,
		}
	}
	return wc
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.Machine.Name == "" {
		c.Machine = sim.Local
	}
	if c.SW.Name == "" {
		c.SW = sim.SWUPCXX
	}
	return c
}

// Stats reports a finished job's measurements: wall-clock duration, the
// modeled virtual makespan, and aggregate communication counters.
type Stats struct {
	Ranks     int
	Wall      time.Duration
	VirtualNs float64 // max over ranks of final virtual clock
	AMs       int64
	Tasks     int64
	Puts      int64
	Gets      int64
	PutBytes  int64
	GetBytes  int64
	SegPeak   uint64 // max per-rank shared-heap high-water mark

	// Counters carries backend-specific named metrics: the wire
	// conduit's per-handler frame/byte counts and the aggregation
	// layer's batch statistics (empty for in-process jobs). The bench
	// harness folds them into its JSON artifact.
	Counters map[string]float64
}

// Seconds returns the authoritative elapsed time of the run: virtual time
// when the job was configured with Virtual, wall-clock time otherwise.
func (s Stats) Seconds(virtual bool) float64 {
	if virtual {
		return s.VirtualNs * 1e-9
	}
	return s.Wall.Seconds()
}

// Job is the shared state of one SPMD run, built by newJob. On a
// wire-backed job (one rank per OS process, see RunWire) only this
// process's slots of segs and ranks are populated; everything cross-rank
// goes through the conduit.
type Job struct {
	cfg   Config
	model *sim.Model
	eng   *gasnet.Engine
	segs  []*segment.Segment
	ranks []*Rank

	// chaos is the in-process backend's shared chaos clock when the
	// job carries a fault plan (see chaos.go); nil otherwise and on
	// wire jobs, where the plan acts in the transport seam instead.
	chaos *procChaos
}

// Rank is one SPMD execution unit's handle; all UPC++ operations take it.
// A Rank handle must only be used by the goroutine Run created for it (or,
// in Concurrent mode, by any goroutine, serialized internally).
type Rank struct {
	id  int
	job *Job
	ep  *gasnet.Endpoint
	seg *segment.Segment

	// cd is the communication backend every cross-rank operation of the
	// serializable vocabulary (Read/Write/Copy, AtomicXor, allocation,
	// barriers, collectives, locks) dispatches through: a ProcConduit
	// for in-process jobs, a WireConduit or HierConduit for
	// multi-process ones. caps is its optional-extension surface,
	// probed once at job start (the Capabilities seam).
	cd   gasnet.Conduit
	caps gasnet.Caps

	// nodes is the host topology (nodes[r] = host of rank r; see
	// Config.Nodes); world/localTeam cache the two built-in teams.
	nodes     []int
	world     *Team
	localTeam *Team

	// agg coalesces small remote ops into per-destination batches on
	// batch-capable conduits (see agg.go); nil in-process, where the
	// Agg* operations take their immediate fast path. aggBC is the
	// conduit's batch extension, set iff agg is.
	agg   *agg.Aggregator
	aggBC gasnet.BatchConduit

	// amHandlers dispatches aggregated active messages (AggSend) by
	// registered handler id, like a GASNet handler table; the runtime's
	// own ids dispatch through sysAMs (rpc.go) instead.
	amHandlers map[uint16]AMHandler

	// aggEv tracks in-flight AggSends on the in-process backend (where
	// they ride engine AMs with no acknowledgement protocol): each send
	// registers, each delivery signals, and the barrier drain waits for
	// it — preserving the wire backend's "visible by the next barrier"
	// guarantee. The zero Event is ready.
	aggEv Event

	mu sync.Mutex // Concurrent-mode serialization

	// gid is the id of the goroutine this rank's SPMD main runs on
	// (captured by start). Future consumption checks it in
	// Serialized mode: Get/Ready/Then from another rank's goroutine
	// would drive the wrong progress engine. 0 = not yet bound.
	gid uint64

	// The fields between the two pad lines are what this rank's own
	// goroutine writes on every launch, execution and completion; the
	// bracket keeps them off the cache lines of the read-mostly fields
	// above (which peers' goroutines read in-process) and of whatever
	// the allocator places after this Rank. finish and scopeFree start
	// on pad.Slice backing arrays for the same reason (newJob).
	_ pad.Line

	finish []finishEntry

	// Registered-task RPC state (rpc.go). scopeFree recycles the implicit
	// scopes of tasks executed here (both backends), and scopesTaken
	// counts how many a task body asked for (an atomic only so Counters
	// may read it from another goroutine). The rest is for
	// wire jobs only: calls awaits executors' replies (futures, signal
	// events) by call id; doneTab holds finish scopes awaiting remote
	// done-acks by scope id; applying is set while this rank is directly
	// inside a batch application (not in a wait nested in one), during
	// which done-acks owed to one caller scope accumulate in (ackTo,
	// ackID, ackN) and ship as one counted ack (oweDone).
	calls       map[uint64]*pendingCall
	nextCall    uint64
	doneTab     map[uint64]*finishScope
	nextDone    uint64
	scopeFree   []*finishScope
	scopesTaken atomic.Int64
	applying    bool
	ackTo       int
	ackID       uint64
	ackN        uint32

	// implicit is the handle of non-blocking copies issued without a
	// completion object (async_copy without an event); AsyncCopyFence
	// and Fence wait on it.
	implicit Event

	_ pad.Line

	// Failure-handling state (health.go / retry.go), populated on
	// resilient or chaos-enabled jobs. rcd is the conduit's resilience
	// extension (nil otherwise); deadRanks is this rank's local view of
	// declared deaths; deathCbs are OnRankDeath registrations.
	// remoteSlots[target][fs] counts done-acks target owes fs, the
	// credits markRankDead restores when target dies; voidCalls holds
	// retired call ids with attempts still unanswered, whose late or
	// duplicate replies must be dropped rather than treated as protocol
	// corruption (see voidCall).
	rcd         gasnet.ResilientConduit
	deadRanks   []bool
	deathCbs    []func(rank int)
	remoteSlots map[int]map[*finishScope]int
	voidCalls   map[uint64]voidCall

	// Observability (internal/obs). ring is this rank's span ring —
	// nil while tracing is disabled, making every span call site a
	// nil-check no-op. rpcRTT / barrierNs are wall-clock latency
	// histograms in the obs registry; they observe only while tracing
	// is on (the clock reads ride the same gate). obsStop removes this
	// rank's registry sources at job end.
	ring      *obs.Ring
	rpcRTT    *obs.Histogram
	barrierNs *obs.Histogram
	obsStop   func()
}

// noWire panics if op — an operation that ships Go closures — targets a
// rank outside this address space, one the job holds no handle for. The
// portable alternative is a registered function: RegisterTask once per
// process, then AsyncTask / AsyncTaskFuture ship its index and
// POD-encoded arguments instead of a closure (see rpc.go).
func (r *Rank) noWire(op string, target int) {
	if r.job.ranks[target] == nil {
		panic(fmt.Errorf("upcxx: %s targeting rank %d from rank %d ships a Go closure "+
			"(use RegisterTask + AsyncTask for remote invocation over the wire): %w",
			op, target, r.id, gasnet.ErrNotWireCapable))
	}
}

// scopeSlab is how many finish-stack slots a rank starts with and how
// many task scopes one free-list refill carves (taskScope).
const scopeSlab = 16

// newJob is the one job builder, shared by Run and RunWire: what
// depends on where the ranks live is settled here, once, so no
// operation asks. eng carries the job's cost model; segs holds the
// segments of the ranks in this address space (nil elsewhere) and
// conduits their conduits by rank id, and the job gets a Rank for
// exactly those — which is all a closure needs to know about its reach
// (noWire). shared says every rank lives here: the world team takes the
// engine's shared slot, a fault plan runs on the in-process chaos
// clock, and the ranks default to one host (otherwise to one host each;
// see jobNodes).
func newJob(cfg Config, eng *gasnet.Engine, shared bool, segs []*segment.Segment,
	conduits map[int]gasnet.Conduit) *Job {
	j := &Job{cfg: cfg, model: eng.Model, eng: eng, segs: segs, ranks: make([]*Rank, cfg.Ranks)}
	if shared && cfg.Fault != nil {
		j.chaos = &procChaos{plan: cfg.Fault}
	}
	world := make([]int, cfg.Ranks)
	for i := range world {
		world[i] = i
	}
	for id, cd := range conduits {
		r := &Rank{
			id:        id,
			job:       j,
			ep:        j.eng.Endpoint(id),
			seg:       segs[id],
			cd:        cd,
			caps:      cd.Capabilities(),
			nodes:     jobNodes(cfg, cd, shared),
			finish:    pad.Slice[finishEntry](scopeSlab)[:0],
			scopeFree: pad.Slice[*finishScope](scopeSlab)[:0],
		}
		r.world = &Team{r: r, id: worldTeamID, members: world, myIdx: id, slot: shared}
		j.ranks[id] = r
	}
	return j
}

// start is every rank's one start-up path, on the goroutine that
// becomes the rank's: aggregation over Caps.Batch, resilience over
// Caps.Resilient (a conduit offers it only when its launcher built it
// survivable: see Config.Wire), obs, then main and quiesce.
func (r *Rank) start(main func(me *Rank)) {
	cfg := r.job.cfg
	if bc := r.caps.Batch; bc != nil {
		r.initAgg(bc, cfg.Agg)
	}
	if rc := r.caps.Resilient; rc != nil {
		r.rcd = rc
		r.deadRanks = make([]bool, cfg.Ranks)
		rc.OnRankDeath(r.markRankDead)
	}
	r.initObs()
	r.gid = goid()
	main(r)
	r.quiesce()
	r.obsStop()
}

// stats is the per-rank fold of a finished rank's measurements; Run
// sums it over its ranks.
func (r *Rank) stats() Stats {
	s := r.ep.Stats
	st := Stats{Ranks: r.Ranks(), VirtualNs: r.ep.Clock.Now(), AMs: s.AMs, Tasks: s.Tasks,
		Puts: s.Puts, Gets: s.Gets, PutBytes: s.PutBytes, GetBytes: s.GetBytes,
		SegPeak: r.seg.Peak(), Counters: map[string]float64{}}
	for _, cs := range r.counterSources() {
		maps.Copy(st.Counters, cs.Counters())
	}
	return st
}

// counterSources lists the rank's named meters: its own, the conduit's
// and the aggregator's.
func (r *Rank) counterSources() []gasnet.CounterSource {
	cs := []gasnet.CounterSource{rankCounters{r}}
	if r.caps.Counters != nil {
		cs = append(cs, r.caps.Counters)
	}
	if r.agg != nil {
		cs = append(cs, r.agg)
	}
	return cs
}

// rankCounters meters the rank's own runtime: core_task_scopes is how
// many task bodies executed here needed a scope of their own (leaf
// bodies take none; see execTask).
type rankCounters struct{ r *Rank }

func (c rankCounters) Counters() map[string]float64 {
	return map[string]float64{"core_task_scopes": float64(c.r.scopesTaken.Load())}
}

// fold adds one rank's statistics into a job total: counts and counters
// sum, the clock and the segment peak take the maximum.
func (s *Stats) fold(o Stats) {
	s.VirtualNs = max(s.VirtualNs, o.VirtualNs)
	s.SegPeak = max(s.SegPeak, o.SegPeak)
	s.AMs += o.AMs
	s.Tasks += o.Tasks
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.PutBytes += o.PutBytes
	s.GetBytes += o.GetBytes
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
}

// initObs attaches this rank to the observability plane: its span ring
// (nil while tracing is disabled), its latency histograms, and a
// registry source folding the conduit/aggregation counters into the
// live metrics surface. Call after the conduit and aggregator exist.
func (r *Rank) initObs() {
	r.ring = obs.RingFor(r.id)
	if r.ring != nil {
		host := 0
		if r.nodes != nil && r.id < len(r.nodes) {
			host = r.nodes[r.id]
		}
		r.ring.SetPid(host)
	}
	r.rpcRTT = obs.Reg().NewHistogram("upcxx_rpc_rtt_ns", r.id)
	r.barrierNs = obs.Reg().NewHistogram("upcxx_barrier_ns", r.id)
	if r.agg != nil {
		r.agg.SetObs(r.ring, r.id)
	}
	var removes []func()
	for _, cs := range r.counterSources() {
		removes = append(removes, obs.Reg().AddSource(r.id, func() map[string]int64 {
			out := map[string]int64{}
			for k, v := range cs.Counters() {
				out[k] = int64(v)
			}
			return out
		}))
	}
	r.obsStop = func() {
		for _, f := range removes {
			f()
		}
	}
}

// Run executes main as an SPMD program over cfg.Ranks ranks and returns
// the job's statistics. It does not return until every rank's main has
// returned and the runtime has quiesced. A panic on any rank crashes the
// whole job (matching the paper's process model, where a failed process
// aborts the SPMD job).
func Run(cfg Config, main func(me *Rank)) Stats {
	cfg = cfg.withDefaults()
	segs := make([]*segment.Segment, cfg.Ranks)
	mems := make([]gasnet.Memory, cfg.Ranks)
	for i := range segs {
		segs[i] = segment.New(cfg.SegmentBytes)
		mems[i] = segs[i]
	}
	eng := gasnet.New(sim.NewModel(cfg.Virtual, cfg.Machine, cfg.SW, cfg.Ranks), cfg.Ranks)
	cds := make(map[int]gasnet.Conduit, cfg.Ranks)
	for i, cd := range gasnet.NewProcGroup(eng, mems) {
		cds[i] = cd
	}
	j := newJob(cfg, eng, true, segs, cds)
	begin := time.Now()
	var wg sync.WaitGroup
	for _, r := range j.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.start(main)
		}()
	}
	wg.Wait()
	st := Stats{Ranks: cfg.Ranks, Wall: time.Since(begin), Counters: map[string]float64{}}
	for _, r := range j.ranks {
		st.fold(r.stats())
	}
	return st
}

// RunWire executes main as THIS process's single rank of an n-rank
// multi-process job communicating through cd (a gasnet.WireConduit or
// HierConduit; spmd.RunChild builds both and is the one launcher).
// seg must be the same segment cd serves remote requests against.
// The rank count comes from the conduit; cfg.Ranks is ignored.
//
// Every operation works as in-process except the closure-carrying ones
// (Async, AsyncFuture, RMW, raw AMs), which panic with
// gasnet.ErrNotWireCapable unless they target this rank itself; remote
// invocation uses registered tasks (rpc.go). The virtual-time model
// does not span address spaces: the cost model is sim.NoCost, time is
// wall-clock, and Stats.VirtualNs holds only what the program charged
// itself (Lapse). The job's engine serves this rank's clock, counters
// and loopback task queue alone.
func RunWire(cfg Config, cd gasnet.Conduit, seg *segment.Segment, main func(me *Rank)) Stats {
	cfg.Ranks = cd.Ranks()
	cfg = cfg.withDefaults()
	cfg.Access = Direct // the AM-mediated path ships closures
	id := cd.Rank()
	segs := make([]*segment.Segment, cfg.Ranks)
	segs[id] = seg
	eng := gasnet.New(sim.NoCost(cfg.Ranks), cfg.Ranks)
	r := newJob(cfg, eng, false, segs, map[int]gasnet.Conduit{id: cd}).ranks[id]
	begin := time.Now()
	r.start(main)
	st := r.stats()
	st.Wall = time.Since(begin)
	// Typed obs metrics (latency histograms and friends) fold into the
	// same counter map the bench harness emits; SnapshotOwn leaves the
	// sources out, because stats() already folded the conduit and
	// aggregation counters in under their unlabeled names.
	for k, v := range obs.Reg().SnapshotOwn() {
		st.Counters[k] = float64(v)
	}
	return st
}

// quiesce drains in-flight messages after main returns: two barrier rounds
// guarantee that any task injected before the first barrier has executed
// before any rank tears down. Both are world-team barriers, so their
// keys follow the program's world collectives in SPMD order.
func (r *Rank) quiesce() {
	w := r.World()
	w.barrier()
	r.ep.Poll()
	r.cd.Poll()
	w.barrier()
}

// mustCd converts a conduit failure into a job abort, following the
// paper's process model (a failed process aborts the SPMD job).
func (r *Rank) mustCd(err error) {
	if err != nil {
		panic(fmt.Errorf("upcxx: rank %d conduit failure: %w", r.id, err))
	}
}

// ID returns this rank's index (MYTHREAD in UPC terms, myrank() in UPC++).
func (r *Rank) ID() int { return r.id }

// Ranks returns the job size (THREADS in UPC terms, ranks() in UPC++).
func (r *Rank) Ranks() int { return r.job.cfg.Ranks }

// Model exposes the cost model (used by benchmark harnesses).
func (r *Rank) Model() *sim.Model { return r.job.model }

// Clock returns this rank's current virtual time in nanoseconds.
func (r *Rank) Clock() float64 { return r.ep.Clock.Now() }

// Barrier blocks until all ranks arrive (upc_barrier / upcxx barrier()).
// Queued async tasks are serviced while waiting, per the paper's progress
// rules. On a wire job the aggregation layer is drained first, so every
// aggregated op issued before the barrier is globally visible after it.
// Equivalent to me.World().Barrier().
func (r *Rank) Barrier() {
	r.World().Barrier()
}

// Advance services queued async tasks and returns how many ran. It is the
// paper's advance() progress call. On a wire-backed job it also services
// the conduit's incoming requests and ships aggregation batches that
// have aged past their flush deadline.
func (r *Rank) Advance() int {
	r.enter()
	defer r.exit()
	r.chaosSync()
	n := r.ep.Poll()
	// Age out overdue batches before servicing the conduit: dispatching
	// an acknowledgement runs the ack cut-through flush, which would
	// otherwise sweep an already-aged batch out as an explicit flush —
	// shipping it no sooner but robbing the age signal the adaptive
	// controller tunes on.
	if r.agg != nil {
		n += r.agg.Tick()
	}
	return n + r.cd.Poll()
}

// Work charges n floating-point operations of modeled compute time to this
// rank's virtual clock. Benchmarks perform their real arithmetic and then
// charge what they executed; see DESIGN.md §4.
func (r *Rank) Work(flops float64) { r.ep.Clock.Advance(r.job.model.FlopsCost(flops)) }

// WorkParallel charges n flops executed across `ways` node-local workers
// (the OpenMP-within-rank idiom of the paper's Embree study).
func (r *Rank) WorkParallel(flops float64, ways int) {
	if ways < 1 {
		ways = 1
	}
	r.ep.Clock.Advance(r.job.model.FlopsCost(flops) / float64(ways))
}

// MemWork charges the movement of n bytes through this core's memory
// system (for memory-bound kernels such as stencils).
func (r *Rank) MemWork(bytes float64) { r.ep.Clock.Advance(r.job.model.MemCost(bytes)) }

// Lapse charges an arbitrary modeled duration in nanoseconds.
func (r *Rank) Lapse(ns float64) { r.ep.Clock.Advance(ns) }

// enter/exit implement Concurrent-mode serialization; in Serialized mode
// they are free.
func (r *Rank) enter() {
	if r.job.cfg.Threads == Concurrent {
		r.mu.Lock()
	}
}

func (r *Rank) exit() {
	if r.job.cfg.Threads == Concurrent {
		r.mu.Unlock()
	}
}

func (r *Rank) String() string {
	return fmt.Sprintf("rank %d/%d", r.id, r.job.cfg.Ranks)
}
