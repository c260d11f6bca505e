package spmd

import (
	"fmt"
	"strings"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/obs"
	"upcxx/internal/rpc"
)

// netCalls sums the transport's system-call counters, and the frames
// read straight to their destination, over every rank of the running
// job, from the live metrics registry (the source /debug/metrics
// serves).
func netCalls() (reads, writevs, landed int64) {
	for k, v := range obs.Reg().Snapshot() {
		switch {
		case strings.HasPrefix(k, "net_rx_reads{"):
			reads += v
		case strings.HasPrefix(k, "net_tx_writevs{"):
			writevs += v
		case strings.HasPrefix(k, "net_rx_landed{"):
			landed += v
		}
	}
	return
}

// BenchmarkWireRoundTrip is the wire conduit's layer benchmark: rank 0
// of a 2-rank RunWireLocal job issues b.N blocking operations at rank
// 1, which sits in the closing barrier. reads/op and writevs/op are
// both ranks' system calls per operation over the timed loop: an
// 8-byte put or get is a request and a reply (2 writevs, 2 reads,
// exact); batch1-reply is an AsyncTaskFuture round trip, a one-op
// aggregation batch whose handler answers — the batch, and the target's
// ack carrying the answer as its reply, which is never acked (2 writevs
// and 2 reads, exact). put32k and get32k are WriteSlice and ReadSlice of 32 KiB:
// a request and a reply each (2 writevs; 3 reads, the long frame's
// header buffer and its remainder plus the short one), and landed/op —
// frames read straight into the segment or the caller's slice — exactly
// 1. get32k-async and put32k-async are ReadSliceAsync and
// WriteSliceFuture of 32 KiB, waited on: the same transfer, so the same
// 3 reads, 2 writevs and landed/op 1.
func BenchmarkWireRoundTrip(b *testing.B) {
	const bulkWords = 4096 // 32 KiB
	src, dst := make([]uint64, bulkWords), make([]uint64, bulkWords)
	for i := range src {
		src[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
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
		{"put32k", func(me *core.Rank, p core.GlobalPtr[uint64], i int) { core.WriteSlice(me, p.Add(1), src) }},
		{"get32k", func(me *core.Rank, p core.GlobalPtr[uint64], i int) {
			core.ReadSlice(me, p.Add(1), dst)
			if dst[bulkWords-1] != src[bulkWords-1] {
				panic(fmt.Sprintf("get32k %d: last word %#x, want %#x", i, dst[bulkWords-1], src[bulkWords-1]))
			}
		}},
		{"get32k-async", func(me *core.Rank, p core.GlobalPtr[uint64], i int) {
			core.ReadSliceAsync(me, p.Add(1), dst).Wait()
			if dst[bulkWords-1] != src[bulkWords-1] {
				panic(fmt.Sprintf("get32k-async %d: last word %#x, want %#x", i, dst[bulkWords-1], src[bulkWords-1]))
			}
		}},
		{"put32k-async", func(me *core.Rank, p core.GlobalPtr[uint64], i int) { core.WriteSliceFuture(me, p.Add(1), src).Wait() }},
		{"batch1-reply", func(me *core.Rank, _ core.GlobalPtr[uint64], i int) {
			arg := uint64(i)
			if got := core.AsyncTaskFuture(me, 1, twEcho, rpc.U64s(arg)).Get(); len(got) != 8 {
				panic(fmt.Sprintf("batch1-reply %d: %d-byte reply, want 8", i, len(got)))
			}
		}},
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			var reads, writevs, landed int64
			// Word 0 for the 8-byte ops, words 1..bulkWords for the slices.
			_, err := RunWireLocal(2, 1<<17, core.Config{}, func(me *core.Rank) {
				p := core.TeamBroadcast(me.World(), core.Allocate[uint64](me, 1, 1+bulkWords), 0)
				if me.ID() == 0 {
					core.Write(me, p, 42)
					core.WriteSlice(me, p.Add(1), src)
					const warm = 200
					for i := 0; i < warm; i++ {
						o.op(me, p, i)
					}
					core.Write(me, p, 42)
					r0, w0, l0 := netCalls()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						o.op(me, p, i)
					}
					b.StopTimer()
					reads, writevs, landed = netCalls()
					reads, writevs, landed = reads-r0, writevs-w0, landed-l0
					core.Write(me, p, 42)
				}
				me.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
			b.ReportMetric(float64(writevs)/float64(b.N), "writevs/op")
			b.ReportMetric(float64(landed)/float64(b.N), "landed/op")
		})
	}
}
