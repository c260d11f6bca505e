package transport

import (
	"sync/atomic"
	"testing"

	"upcxx/internal/frames"
)

// BenchmarkLoopbackRTT is the transport's layer benchmark: one frame
// to a peer blocked in WaitFor and its echo back to a sender blocked
// in WaitFor, over loopback TCP. reads/op and writevs/op are both
// endpoints' system calls per round trip, from the endpoints' own
// counters (exact: 2 and 2 up to the rx buffer's payload room, a third
// and fourth read once the payload no longer fits beside its header).
// direct/op is the frames the waiting rank read from the socket
// itself — 2 once each endpoint owns its peer's read side, which the
// warm-up round trips settle — and handovers/op the read sides passed
// between a reader goroutine and a rank in the timed loop (0).
func BenchmarkLoopbackRTT(b *testing.B) {
	for _, s := range []struct {
		name string
		size int
	}{{"8B", 8}, {"256B", 256}, {"32KiB", 32 << 10}} {
		b.Run(s.name, func(b *testing.B) {
			eps := mesh(b, 2)
			var stop atomic.Bool
			eps[1].Register(5, func(ep *TCPEndpoint, m Message) {
				// The rx payload goes back to the pool when this handler
				// returns, before the flush that ships the echo: send a
				// copy the transport owns, as a real handler would.
				p := frames.Get(len(m.Payload))
				copy(p, m.Payload)
				if err := ep.SendOwned(Message{To: 0, Handler: 6, Payload: p}); err != nil {
					b.Error(err)
				}
			})
			var pongs int
			eps[0].Register(6, func(*TCPEndpoint, Message) { pongs++ })
			served := make(chan error, 1)
			go func() { served <- eps[1].WaitFor(stop.Load) }()

			payload := make([]byte, s.size)
			rtt := func(i int) {
				if err := eps[0].Send(Message{To: 1, Handler: 5, Payload: payload}); err != nil {
					b.Fatal(err)
				}
				if err := eps[0].WaitFor(func() bool { return pongs > i }); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				rtt(i)
			}
			pongs = 0
			before := sumCounters(eps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rtt(i)
			}
			b.StopTimer()
			after := sumCounters(eps)
			b.ReportMetric((after["net_rx_reads"]-before["net_rx_reads"])/float64(b.N), "reads/op")
			b.ReportMetric((after["net_tx_writevs"]-before["net_tx_writevs"])/float64(b.N), "writevs/op")
			b.ReportMetric((after["net_rx_direct"]-before["net_rx_direct"])/float64(b.N), "direct/op")
			b.ReportMetric((after["net_rx_handovers"]-before["net_rx_handovers"])/float64(b.N), "handovers/op")
			stop.Store(true)
			eps[1].Wake()
			if err := <-served; err != nil {
				b.Fatal(err)
			}
		})
	}
}

func sumCounters(eps []*TCPEndpoint) map[string]float64 {
	sum := make(map[string]float64)
	for _, ep := range eps {
		for k, v := range ep.Counters() {
			sum[k] += v
		}
	}
	return sum
}
