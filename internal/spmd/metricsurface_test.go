package spmd

import (
	"slices"
	"strings"
	"testing"

	"upcxx/internal/core"
	"upcxx/internal/obs"
	"upcxx/internal/rpc"
)

// The metric surface of a 2-rank wire job running one task RPC under
// Finish and a few barriers. Rank 0 roots the barrier's gather, so it
// receives teamgather frames and sends teamresult ones; rank 1 the
// reverse. Tracing on adds the two latency histograms rank code only
// observes while it holds a ring.
var (
	surfaceBoth = strings.Fields(`
	agg_ack_replies agg_batch_bytes agg_batches
	agg_flush_barrier agg_flush_explicit agg_flush_maxage
	agg_flush_maxbytes agg_flush_maxops agg_ops
	agg_ops_per_batch agg_saved_bytes core_task_scopes
	net_rx_direct net_rx_frames net_rx_handovers
	net_rx_land_fallbacks net_rx_landed net_rx_reads
	net_tx_frames net_tx_writevs net_wakes_coalesced
	upcxx_agg_flush_bytes_count{rank=0} upcxx_agg_flush_bytes_count{rank=1}
	upcxx_agg_flush_bytes_sum{rank=0} upcxx_agg_flush_bytes_sum{rank=1}
	wire_rx_bytes wire_rx_bytes_batch wire_rx_bytes_reply
	wire_rx_frames wire_rx_frames_batch wire_rx_frames_reply
	wire_tx_bytes wire_tx_bytes_batch wire_tx_bytes_reply
	wire_tx_frames wire_tx_frames_batch wire_tx_frames_reply`)
	surfaceRoot = strings.Fields(`
	wire_rx_bytes_teamgather wire_rx_frames_teamgather
	wire_tx_bytes_teamresult wire_tx_frames_teamresult`)
	surfaceLeaf = strings.Fields(`
	wire_rx_bytes_teamresult wire_rx_frames_teamresult
	wire_tx_bytes_teamgather wire_tx_frames_teamgather`)
	surfaceTraced = strings.Fields(`
	upcxx_barrier_ns_count{rank=0} upcxx_barrier_ns_count{rank=1}
	upcxx_barrier_ns_sum{rank=0} upcxx_barrier_ns_sum{rank=1}
	upcxx_rpc_rtt_ns_count{rank=0} upcxx_rpc_rtt_ns_count{rank=1}
	upcxx_rpc_rtt_ns_sum{rank=0} upcxx_rpc_rtt_ns_sum{rank=1}`)
	// Name and type of every Prometheus family, as "# TYPE" prints them.
	surfaceFamilies = strings.Fields(`
	agg_ack_replies untyped agg_batch_bytes untyped
	agg_batches untyped agg_flush_barrier untyped
	agg_flush_explicit untyped agg_flush_maxage untyped
	agg_flush_maxbytes untyped agg_flush_maxops untyped
	agg_ops untyped agg_ops_per_batch untyped
	agg_saved_bytes untyped core_task_scopes untyped
	net_rx_direct untyped net_rx_frames untyped
	net_rx_handovers untyped net_rx_land_fallbacks untyped
	net_rx_landed untyped net_rx_reads untyped
	net_tx_frames untyped net_tx_writevs untyped
	net_wakes_coalesced untyped upcxx_agg_flush_bytes histogram
	upcxx_barrier_ns histogram upcxx_rpc_rtt_ns histogram
	wire_rx_bytes untyped wire_rx_bytes_batch untyped
	wire_rx_bytes_reply untyped wire_rx_bytes_teamgather untyped
	wire_rx_bytes_teamresult untyped wire_rx_frames untyped
	wire_rx_frames_batch untyped wire_rx_frames_reply untyped
	wire_rx_frames_teamgather untyped wire_rx_frames_teamresult untyped
	wire_tx_bytes untyped wire_tx_bytes_batch untyped
	wire_tx_bytes_reply untyped wire_tx_bytes_teamgather untyped
	wire_tx_bytes_teamresult untyped wire_tx_frames untyped
	wire_tx_frames_batch untyped wire_tx_frames_reply untyped
	wire_tx_frames_teamgather untyped wire_tx_frames_teamresult untyped`)
)

// TestMetricSurface pins what the metrics plane emits, with tracing off
// and on: the key set of each rank's Stats.Counters and the family list
// of the registry's Prometheus text taken while the job runs. Every
// counter key, histogram series and family is there, and nothing else.
func TestMetricSurface(t *testing.T) {
	t.Cleanup(func() {
		obs.SetTracing(false)
		obs.Reset()
	})
	var families []string
	for i := 0; i < len(surfaceFamilies); i += 2 {
		families = append(families, surfaceFamilies[i]+" "+surfaceFamilies[i+1])
	}
	for _, tracing := range []bool{false, true} {
		obs.Reset()
		obs.SetTracing(tracing)
		var prom string
		sts, err := RunWireLocal(2, 1<<17, core.Config{}, func(me *core.Rank) {
			core.Finish(me, func() {
				core.AsyncTaskFuture(me, 1-me.ID(), twEcho, rpc.U64s(40)).Wait()
			})
			// Two barriers: once rank 0 leaves the second, rank 1 has
			// counted the first one's teamresult frame.
			me.Barrier()
			me.Barrier()
			if me.ID() == 0 {
				prom = obs.Reg().Prometheus()
			}
			me.Barrier()
		})
		obs.SetTracing(false)
		if err != nil {
			t.Fatal(err)
		}
		for r, st := range sts {
			want := slices.Concat(surfaceBoth, [][]string{surfaceRoot, surfaceLeaf}[r])
			if tracing {
				want = append(want, surfaceTraced...)
			}
			slices.Sort(want)
			var got []string
			for k := range st.Counters {
				got = append(got, k)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("tracing %v, rank %d: counter keys\n got %q\nwant %q", tracing, r, got, want)
			}
		}
		var got []string
		for _, l := range strings.Split(prom, "\n") {
			if f, ok := strings.CutPrefix(l, "# TYPE "); ok {
				got = append(got, f)
			}
		}
		if !slices.Equal(got, families) {
			t.Errorf("tracing %v: Prometheus families\n got %q\nwant %q", tracing, got, families)
		}
	}
}
