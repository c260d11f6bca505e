package spmd

import (
	"fmt"
	"strings"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/obs"
	"upcxx/internal/rpc"
)

// netCalls sums the transport's system-call counters over every rank of
// the running job, from the live metrics registry (the source
// /debug/metrics serves).
func netCalls() (reads, writevs int64) {
	for k, v := range obs.Reg().Snapshot() {
		switch {
		case strings.HasPrefix(k, "net_rx_reads{"):
			reads += v
		case strings.HasPrefix(k, "net_tx_writevs{"):
			writevs += v
		}
	}
	return
}

// BenchmarkWireRoundTrip is the wire conduit's layer benchmark: rank 0
// of a 2-rank RunWireLocal job issues b.N blocking operations at rank
// 1, which sits in the closing barrier. reads/op and writevs/op are
// both ranks' system calls per operation over the timed loop: an
// 8-byte put or get is a request and a reply (2 writevs, 2 reads,
// exact); batch1-reply is a one-op aggregation batch whose handler
// answers — the batch, the target's ack and answer batch in one writev,
// and the ack of that answer (3 writevs, exact; 3 reads at most, fewer
// whenever the answer's ack and the next batch reach the target
// together).
func BenchmarkWireRoundTrip(b *testing.B) {
	ops := []struct {
		name string
		op   func(me *core.Rank, p core.GlobalPtr[uint64], i int)
	}{
		{"put8", func(me *core.Rank, p core.GlobalPtr[uint64], i int) { core.Write(me, p, uint64(i)) }},
		{"get8", func(me *core.Rank, p core.GlobalPtr[uint64], i int) {
			if v := core.Read(me, p); v != 42 {
				panic(fmt.Sprintf("get8 %d: read %d, want 42", i, v))
			}
		}},
		{"batch1-reply", func(me *core.Rank, _ core.GlobalPtr[uint64], i int) {
			arg := uint64(i)
			if got := core.AsyncTaskFuture(me, 1, twEcho, rpc.U64s(arg)).Get(); len(got) != 8 {
				panic(fmt.Sprintf("batch1-reply %d: %d-byte reply, want 8", i, len(got)))
			}
		}},
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			var reads, writevs int64
			_, err := RunWireLocal(2, 1<<16, core.Config{}, func(me *core.Rank) {
				p := core.TeamBroadcast(me.World(), core.Allocate[uint64](me, 1, 1), 0)
				if me.ID() == 0 {
					core.Write(me, p, 42)
					const warm = 200
					for i := 0; i < warm; i++ {
						o.op(me, p, i)
					}
					core.Write(me, p, 42)
					r0, w0 := netCalls()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						o.op(me, p, i)
					}
					b.StopTimer()
					reads, writevs = netCalls()
					reads, writevs = reads-r0, writevs-w0
					core.Write(me, p, 42)
				}
				me.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
			b.ReportMetric(float64(writevs)/float64(b.N), "writevs/op")
		})
	}
}
