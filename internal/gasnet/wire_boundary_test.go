package gasnet

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"upcxx/internal/frames"
	"upcxx/internal/transport"
)

// wireFleet builds n connected WireConduits over localhost TCP, each
// backed by a testMem of memBytes.
func wireFleet(t testing.TB, n, memBytes int) []*WireConduit {
	t.Helper()
	eps := make([]*transport.TCPEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := transport.ListenTCP(i, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	cds := make([]*WireConduit, n)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := eps[i].Connect(addrs); err != nil {
				t.Errorf("rank %d connect: %v", i, err)
				return
			}
			cds[i] = NewWireConduit(eps[i], newTestMem(memBytes))
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return cds
}

// servePoll runs cd.Poll until the returned stop func is called, so a
// single-goroutine test can play both requester and responder.
func servePoll(cd *WireConduit) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
				cd.Poll()
			}
		}
	}()
	return func() { close(done); <-exited }
}

func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>11)
	}
	return p
}

// TestPutGetChunkBoundaries pins the Get/Put chunking behaviour at the
// exact frame-capacity edges: payloads of maxChunk-1/maxChunk (one
// request frame) and maxChunk+1 through MaxPayload+1 (split into
// chunked requests), plus the degenerate zero-length transfer, must
// all round-trip intact and never exceed transport.MaxPayload per
// frame (the transport rejects oversized sends, so success here proves
// the chunker's arithmetic).
func TestPutGetChunkBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("moves several 16 MiB payloads")
	}
	cds := wireFleet(t, 2, transport.MaxPayload+(1<<20))
	stop := servePoll(cds[1])
	defer stop()

	sizes := []int{0, maxChunk - 1, maxChunk, maxChunk + 1,
		transport.MaxPayload - 1, transport.MaxPayload, transport.MaxPayload + 1}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("size=%d", n), func(t *testing.T) {
			src := pattern(n)
			if err := cds[0].Put(1, 0, src); err != nil {
				t.Fatalf("put %d bytes: %v", n, err)
			}
			got := make([]byte, n)
			if err := cds[0].Get(1, 0, got); err != nil {
				t.Fatalf("get %d bytes: %v", n, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%d-byte round trip corrupted payload", n)
			}
		})
	}
}

// TestAllGatherFragmentBoundaries pins the collective fragmentation
// path (sendFragmented/reassemble, the substrate of the core's wire
// collectives) at the fragment-capacity edges: a zero-length
// contribution, exactly one full fragment (maxFragData), one byte
// over, and contributions at MaxPayload±1 — with asymmetric sizes per
// rank so reassembly keys (collective key, sender) are exercised.
func TestAllGatherFragmentBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("gathers ~64 MiB of contributions")
	}
	const n = 2
	cds := wireFleet(t, n, 64)

	rounds := [][n]int{
		{0, maxFragData}, // empty + exactly one full fragment
		{maxFragData + 1, transport.MaxPayload - 1},      // just over one fragment
		{transport.MaxPayload, transport.MaxPayload + 1}, // at and past the frame cap
		{0, 0}, // pure barrier round after the heavy ones
	}
	for round, sizes := range rounds {
		contribs := make([][]byte, n)
		for r, sz := range sizes {
			contribs[r] = pattern(sz)
		}
		tables := make([][][]byte, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tables[i], errs[i] = cds[i].TeamAllGather(uint64(round+1), allRanks(n), contribs[i])
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("sizes %v: rank %d allgather: %v", sizes, i, errs[i])
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(tables[i][r], contribs[r]) {
					t.Fatalf("sizes %v: rank %d sees corrupt contribution from %d", sizes, i, r)
				}
			}
		}
	}
}

// noReply is a batch plane reply hook that never hands a reply over.
func noReply(int) []byte { return nil }

// recorder collects applied batches on the receiving side.
type recorder struct {
	mu      sync.Mutex
	batches [][]byte
	froms   []int
}

func (r *recorder) handle(from int, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, append([]byte(nil), payload...))
	r.froms = append(r.froms, from)
	return nil
}

// TestSendBatchAckAndCounters exercises the aggregation batch plane:
// batches are delivered to the installed handler in send order, each
// is acknowledged exactly once, and the per-handler counters account
// one tx batch frame per SendBatch plus one rx reply per ack.
func TestSendBatchAckAndCounters(t *testing.T) {
	cds := wireFleet(t, 2, 64)
	rec := &recorder{}
	cds[1].SetBatchHandler(rec.handle, noReply, func() {})
	stop := servePoll(cds[1])

	const batches = 5
	acked := 0
	for i := 0; i < batches; i++ {
		payload := []byte{byte(i), byte(i + 1)}
		if err := cds[0].SendBatch(1, payload, func() { acked++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := cds[0].WaitFor(func() bool { return acked == batches }); err != nil {
		t.Fatal(err)
	}
	stop()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.batches) != batches {
		t.Fatalf("delivered %d batches, want %d", len(rec.batches), batches)
	}
	for i, b := range rec.batches {
		if rec.froms[i] != 0 {
			t.Errorf("batch %d from rank %d, want 0", i, rec.froms[i])
		}
		if !bytes.Equal(b, []byte{byte(i), byte(i + 1)}) {
			t.Errorf("batch %d out of order or corrupt: %v", i, b)
		}
	}

	tx := cds[0].Counters()
	if got := tx["wire_tx_frames_batch"]; got != batches {
		t.Errorf("sender wire_tx_frames_batch = %v, want %d", got, batches)
	}
	if got := tx["wire_rx_frames_reply"]; got != batches {
		t.Errorf("sender wire_rx_frames_reply = %v, want %d", got, batches)
	}
	if tx["wire_tx_bytes_batch"] != 2*batches {
		t.Errorf("sender wire_tx_bytes_batch = %v, want %d", tx["wire_tx_bytes_batch"], 2*batches)
	}
	rxc := cds[1].Counters()
	if got := rxc["wire_rx_frames_batch"]; got != batches {
		t.Errorf("receiver wire_rx_frames_batch = %v, want %d", got, batches)
	}
	if rxc["wire_rx_frames"] < batches {
		t.Errorf("receiver wire_rx_frames = %v, want >= %d", rxc["wire_rx_frames"], batches)
	}
}

// TestBatchAckSharesFlush pins the batch plane's request/reply rule: a
// one-op batch whose handler answers is answered by exactly one frame —
// its ack, carrying the reply — in one vectored write, and the sender
// applies the reply before the batch's completion fires, then runs the
// after hook. A reply is never acknowledged: the sender's only frame is
// the batch.
func TestBatchAckSharesFlush(t *testing.T) {
	cds := wireFleet(t, 2, 64)
	var order []string // sender's goroutine only
	cds[0].SetBatchHandler(func(_ int, p []byte) error {
		order = append(order, "reply "+string(p))
		return nil
	}, noReply, func() { order = append(order, "after") })
	applied := false
	cds[1].SetBatchHandler(func(int, []byte) error { applied = true; return nil }, func(to int) []byte {
		if !applied || to != 0 {
			t.Errorf("reply hook for rank %d ran with the batch applied %v", to, applied)
		}
		return append(frames.Get(3)[:0], "ans"...)
	}, func() {})
	before := cds[1].Counters()
	stop := servePoll(cds[1])
	if err := cds[0].SendBatch(1, frames.Get(2), func() { order = append(order, "ack") }); err != nil {
		t.Fatal(err)
	}
	if err := cds[0].WaitFor(func() bool { return len(order) == 3 }); err != nil {
		t.Fatal(err)
	}
	stop()
	if want := []string{"reply ans", "ack", "after"}; !slices.Equal(order, want) {
		t.Errorf("sender ran %q, want %q", order, want)
	}
	after := cds[1].Counters()
	for name, want := range map[string]float64{"net_tx_writevs": 1, "wire_tx_frames": 1, "wire_tx_frames_reply": 1} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("target %s grew by %v, want %v", name, got, want)
		}
	}
	if got := cds[0].Counters()["wire_tx_frames"]; got != 1 {
		t.Errorf("sender sent %v frames, want 1 (the batch; a reply is never acked)", got)
	}
}
