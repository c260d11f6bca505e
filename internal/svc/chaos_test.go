package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"upcxx/internal/core"
	"upcxx/internal/gasnet"
	"upcxx/internal/segment"
	"upcxx/internal/transport"
)

// TestChaosZeroAckedLoss is the durability gate of the service plane: a
// resilient in-process gateway job (3 compute ranks + the gateway, K=2
// replication) behind the real mux takes concurrent PUTs while one
// compute rank's endpoint is aborted mid-run — no goodbye, no drain, as
// a kill -9 presents. Every write the gateway acknowledged, before,
// during or after the death, must read back afterwards, and the store's
// failover retry keeps the 5xx responses to a handful.
func TestChaosZeroAckedLoss(t *testing.T) {
	const (
		serveRanks = 3
		ranks      = serveRanks + 1
		gateRank   = serveRanks
		victim     = 1
		scale      = 1 << 12
		workers    = 8
		runFor     = 700 * time.Millisecond
		killAfter  = 200 * time.Millisecond
	)
	st := NewDHTStore(StoreConfig{})
	app := New(st, Config{MaxInFlight: 4 * workers, RequestTimeout: 30 * time.Second})

	// The mesh is built by hand, not by spmd.RunWireLocal, so the test
	// can reach the victim's endpoint and abort it.
	eps := make([]*transport.TCPEndpoint, ranks)
	addrs := make([]string, ranks)
	for i := range eps {
		ep, err := transport.ListenTCP(i, ranks, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[i], addrs[i] = ep, ep.Addr()
	}
	sums := make([]uint64, ranks)
	finished := make([]bool, ranks) // the rank's body returned
	panics := make([]any, ranks)
	var mesh sync.WaitGroup
	for i := range eps {
		mesh.Add(1)
		go func(i int) {
			defer mesh.Done()
			// The victim's runtime panics once its endpoint is gone;
			// that panic is the scripted death, anyone else's a failure.
			defer func() { panics[i] = recover() }()
			cfg := core.Config{Resilient: true}
			seg := segment.New(GateSegBytes(ranks, scale))
			cd := gasnet.NewWireConduit(eps[i], seg, cfg.Wire(i))
			defer cd.Close()
			if err := cd.Connect(addrs, time.Time{}); err != nil {
				panic(fmt.Sprintf("rank %d connect: %v", i, err))
			}
			core.RunWire(cfg, cd, seg, func(me *core.Rank) {
				if i == gateRank {
					sums[i] = GatewayMain(me, st, scale)
				} else {
					sums[i] = ServeMain(me, scale)
				}
				finished[i] = true
			})
			cd.Goodbye()
		}(i)
	}

	waitReady(st)
	srv := httptest.NewServer(Handler(app))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: workers, MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers,
	}}
	defer client.CloseIdleConnections()

	end := time.Now().Add(runFor)
	time.AfterFunc(killAfter, eps[victim].Abort)
	var (
		mu          sync.Mutex
		ops, errs5x int
		acked       = map[string]uint64{}
		wg          sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every key is written once, so the one acked value is the only
			// right answer on read-back, whatever the interleaving.
			for seq := 0; time.Now().Before(end); seq++ {
				key, val := fmt.Sprintf("c%d-%d", w, seq), uint64(w)<<32|uint64(seq)
				req, _ := http.NewRequest(http.MethodPut, srv.URL+"/kv/"+key,
					strings.NewReader(strconv.FormatUint(val, 10)))
				status := 599
				if resp, err := client.Do(req); err == nil {
					resp.Body.Close()
					status = resp.StatusCode
				}
				mu.Lock()
				ops++
				if status >= 500 {
					errs5x++
				}
				if status == http.StatusNoContent {
					acked[key] = val
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	lost := verifyAcked(t, client, srv.URL, acked)
	st.Stop()
	mesh.Wait()

	t.Logf("chaos: ops=%d acked=%d 5xx=%d lost=%d", ops, len(acked), errs5x, lost)
	if lost != 0 {
		t.Errorf("lost %d acked writes to a single rank death under K=2 replication", lost)
	}
	if len(acked) == 0 {
		t.Error("no writes acked; the run measured nothing")
	}
	// Failover retries absorb the death; a few exhausted-budget 5xx
	// responses are tolerable, an error storm is not.
	if limit := ops/10 + 5; errs5x > limit {
		t.Errorf("5xx budget: %d errors over %d ops (limit %d)", errs5x, ops, limit)
	}
	if finished[victim] {
		t.Errorf("rank %d finished its body: the abort came too late to test anything", victim)
	}
	for i := 0; i < ranks; i++ {
		if i == victim {
			continue
		}
		if panics[i] != nil {
			t.Errorf("rank %d: %v", i, panics[i])
		} else if sums[i] != sums[gateRank] {
			t.Errorf("rank %d checksum %#x != gateway %#x", i, sums[i], sums[gateRank])
		}
	}
}

// verifyAcked re-reads every acked write through the batch-get endpoint
// and returns how many are missing or wrong.
func verifyAcked(t *testing.T, c *http.Client, base string, acked map[string]uint64) int {
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lost := 0
	const chunk = 512
	for at := 0; at < len(keys); at += chunk {
		sub := keys[at:min(at+chunk, len(keys))]
		body, _ := json.Marshal(struct {
			Keys []string `json:"keys"`
		}{sub})
		var out struct {
			Items []batchItem `json:"items"`
		}
		resp, err := c.Post(base+"/kv/batch/get", "application/json", bytes.NewReader(body))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		if err != nil || len(out.Items) != len(sub) {
			t.Errorf("batch get of %d keys: %d items, %v", len(sub), len(out.Items), err)
			return lost + len(keys) - at // what cannot be read back counts as lost
		}
		for _, it := range out.Items {
			if !it.Found || it.Value != acked[it.Key] {
				lost++
			}
		}
	}
	return lost
}
