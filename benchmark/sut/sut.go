// Package sut is the benchmark's only door into the program under
// test. Every program symbol a workload or probe uses is named here and
// nowhere else, so a refactor of the program knows exactly the surface
// it must keep callable — and when a symbol moves, this file is the one
// place the benchmark changes. It deliberately imports nothing from
// upcxx/internal/bench: those experiments stay free to change.
//
// The wrappers add nothing: no defaults, no retries, no error mapping.
// Generic functions are instantiated at the one element type the
// benchmark moves (uint64).
package sut

import (
	"net/http"

	"upcxx/internal/agg"
	"upcxx/internal/core"
	"upcxx/internal/dht"
	"upcxx/internal/frames"
	"upcxx/internal/rpc"
	"upcxx/internal/segment"
	"upcxx/internal/spmd"
	"upcxx/internal/svc"
	"upcxx/internal/transport"
)

// ---- launchers (spmd, core) ----

type (
	Rank   = core.Rank
	Config = core.Config
	Stats  = core.Stats
	Team   = core.Team
	Ptr    = core.GlobalPtr[uint64]
	Place  = core.Place
	Task   = core.Task
)

// RunWireLocal runs n ranks in this process, each with its own TCP
// endpoint, segment and wire conduit over the loopback interface.
func RunWireLocal(n, segBytes int, cfg Config, main func(me *Rank)) ([]Stats, error) {
	return spmd.RunWireLocal(n, segBytes, cfg, main)
}

// RunHierLocal runs n ranks as n/ppn virtual hosts: shared-memory rings
// within a host, TCP between hosts.
func RunHierLocal(n, ppn, segBytes int, cfg Config, main func(me *Rank)) ([]Stats, error) {
	return spmd.RunHierLocal(n, ppn, segBytes, cfg, main)
}

// RunProc runs the in-process backend (ProcConduit, no wire).
func RunProc(cfg Config, main func(me *Rank)) Stats { return core.Run(cfg, main) }

// ---- one-sided operations and collectives (core over gasnet) ----

func Allocate(me *Rank, rank, count int) Ptr     { return core.Allocate[uint64](me, rank, count) }
func PtrAt(rank int, off uint64) Ptr             { return core.PtrAt[uint64](rank, off) }
func Write(me *Rank, p Ptr, v uint64)            { core.Write(me, p, v) }
func Read(me *Rank, p Ptr) uint64                { return core.Read(me, p) }
func WriteSlice(me *Rank, dst Ptr, src []uint64) { core.WriteSlice(me, dst, src) }
func ReadSlice(me *Rank, src Ptr, dst []uint64)  { core.ReadSlice(me, src, dst) }
func AtomicXor(me *Rank, p Ptr, v uint64) uint64 { return core.AtomicXor(me, p, v) }

func AllGatherU64(t *Team, v uint64) []uint64         { return core.TeamAllGather(t, v) }
func AllGatherPtr(t *Team, p Ptr) []Ptr               { return core.TeamAllGather(t, p) }
func BroadcastU64(t *Team, v uint64, root int) uint64 { return core.TeamBroadcast(t, v, root) }

// ---- registered tasks, finish, futures (core over rpc and agg) ----

type TaskBody = core.TaskBody

func RegisterTask(name string, fn TaskBody) Task     { return core.RegisterTask(name, fn) }
func On(rank int) Place                              { return core.On(rank) }
func AsyncTask(me *Rank, at Place, t Task, a []byte) { core.AsyncTask(me, at, t, a) }
func Finish(me *Rank, body func())                   { core.Finish(me, body) }
func AggXor64(me *Rank, p Ptr, v uint64)             { core.AggXor64(me, p, v, nil) }

// RPCRoundTrip issues one task with a future and blocks for its reply.
func RPCRoundTrip(me *Rank, target int, t Task, a []byte) []byte {
	return core.AsyncTaskFuture(me, target, t, a).Get()
}

// ThenGet chains one continuation on an already-resolved future and
// consumes it: the cost of the futures machinery with no communication.
func ThenGet(me *Rank, v uint64) uint64 {
	return core.Then(core.Resolved(me, v), func(x uint64) uint64 { return x + 1 }).Get()
}

// ---- rpc codecs ----

func U64s(vs ...uint64) []byte                   { return rpc.U64s(vs...) }
func U64(b []byte) (uint64, []byte)              { return rpc.U64(b) }
func AppendU64(b []byte, v uint64) []byte        { return rpc.AppendU64(b, v) }
func EncodeRequest(task uint16, a []byte) []byte { return rpc.EncodeRequest(task, 0, 1, 2, a) }
func DecodeRequest(p []byte) (uint64, error) {
	r, err := rpc.DecodeRequest(p)
	return r.DoneID, err
}

// ---- aggregation (agg) ----

type (
	AggConfig  = agg.Config
	Aggregator = agg.Aggregator
)

func NewAggregator(ranks int, cfg AggConfig, flush agg.Flusher) *Aggregator {
	return agg.New(ranks, cfg, flush)
}

// ---- frame pools, segment allocator ----

func FrameGet(n int) []byte { return frames.Get(n) }
func FramePut(b []byte)     { frames.Put(b) }

type Segment = segment.Segment

func NewSegment(capacity int) *Segment { return segment.New(capacity) }

// ---- transport ----

type (
	Endpoint = transport.TCPEndpoint
	Message  = transport.Message
)

func ListenTCP(rank, n int, addr string) (*Endpoint, error) {
	return transport.ListenTCP(rank, n, addr)
}

// ---- distributed hash table (dht) ----

type (
	Table     = dht.Table
	DHTConfig = dht.Config
)

func NewTable(me *Rank, capPerRank int, cfg DHTConfig) *Table {
	return dht.NewWithConfig(me, capPerRank, cfg)
}
func TableCapacity(insertsPerRank int) int { return dht.DefaultCapacity(insertsPerRank) }
func TableSegBytes(capPerRank int) int     { return dht.SegBytes(capPerRank) }

// InsertAcked inserts one pair and blocks until every live replica has
// acknowledged it.
func InsertAcked(me *Rank, t *Table, key, val uint64) {
	p := core.NewPromise(me)
	t.Insert(me, key, val, p)
	core.AggFlush(me)
	p.Finalize().Get()
}

// ---- service plane (svc) ----

type (
	Store       = svc.Store
	GetResult   = svc.GetResult
	DHTStore    = svc.DHTStore
	Service     = svc.Service
	SvcConfig   = svc.Config
	StoreConfig = svc.StoreConfig
)

const GateReplicas = svc.GateReplicas

func NewDHTStore(cfg StoreConfig) *DHTStore                { return svc.NewDHTStore(cfg) }
func NewService(st Store, cfg SvcConfig) *Service          { return svc.New(st, cfg) }
func Handler(s *Service) http.Handler                      { return svc.Handler(s) }
func GatewayMain(me *Rank, st *DHTStore, scale int) uint64 { return svc.GatewayMain(me, st, scale) }
func ServeMain(me *Rank, scale int) uint64                 { return svc.ServeMain(me, scale) }
func GateSegBytes(ranks, scale int) int                    { return svc.GateSegBytes(ranks, scale) }
