package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"upcxx/internal/core"
	"upcxx/internal/dht"
	"upcxx/internal/spmd"
)

// waitReady returns once the store's gateway rank has joined the table
// and serves requests.
func waitReady(st *DHTStore) {
	for !st.Ready() {
		time.Sleep(time.Millisecond)
	}
}

// TestGatewayDrainSemantics is the end-to-end drain test the PR's
// satellite demands, deterministic and subprocess-free: a 4-rank
// in-process wire job (3 compute ranks + the gateway) fronted by an
// httptest server over the real mux. It drives the full HTTP surface,
// then drains under concurrent load and verifies the three drain
// guarantees:
//
//  1. every acknowledged write survives — the survivors' collective
//     checksum equals ExpectedChecksum over exactly the acked set,
//     which also proves the aggregator flushed before mesh departure
//     (an unflushed acked insert would be missing from the fold);
//  2. requests arriving during the drain are refused (503 +
//     Retry-After), never hung;
//  3. the job exits cleanly: every rank returns the same checksum.
func TestGatewayDrainSemantics(t *testing.T) {
	const (
		serveRanks = 3
		ranks      = serveRanks + 1
		scale      = 4096
	)
	st := NewDHTStore(StoreConfig{VerifyKeys: true})
	app := New(st, Config{MaxInFlight: 64, RequestTimeout: 10 * time.Second})

	sums := make([]uint64, ranks)
	acked := struct {
		sync.Mutex
		pairs map[uint64]uint64
	}{pairs: map[uint64]uint64{}}
	ack := func(key string, val uint64) {
		acked.Lock()
		acked.pairs[dht.StrKey(key)] = val
		acked.Unlock()
	}

	clientErr := make(chan error, 1)
	go func() {
		clientErr <- func() error {
			waitReady(st)
			srv := httptest.NewServer(Handler(app))
			defer srv.Close()
			c := srv.Client()

			// -- The full request surface, before the drain. --
			put := func(key string, val uint64) (*http.Response, error) {
				req, _ := http.NewRequest(http.MethodPut,
					fmt.Sprintf("%s/kv/%s", srv.URL, key),
					strings.NewReader(fmt.Sprint(val)))
				return c.Do(req)
			}
			resp, err := put("alpha", 42)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				return fmt.Errorf("PUT /kv/alpha: %s", resp.Status)
			}
			ack("alpha", 42)

			resp, err = c.Get(srv.URL + "/kv/alpha")
			if err != nil {
				return err
			}
			var got kvItem
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || got.Value != 42 {
				return fmt.Errorf("GET /kv/alpha = %+v, %v; want value 42", got, err)
			}

			resp, err = c.Get(srv.URL + "/kv/never-written")
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				return fmt.Errorf("GET missing key: %s, want 404", resp.Status)
			}

			// Batch endpoints.
			var batch struct {
				Items []kvItem `json:"items"`
			}
			for i := 0; i < 200; i++ {
				batch.Items = append(batch.Items,
					kvItem{Key: fmt.Sprintf("batch-%d", i), Value: uint64(1000 + i)})
			}
			body, _ := json.Marshal(batch)
			resp, err = c.Post(srv.URL+"/kv/batch/put", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			var putOut struct {
				Results []batchResult `json:"results"`
			}
			err = json.NewDecoder(resp.Body).Decode(&putOut)
			resp.Body.Close()
			if err != nil || len(putOut.Results) != 200 {
				return fmt.Errorf("batch put: %v, %d results", err, len(putOut.Results))
			}
			for _, r := range putOut.Results {
				if !r.OK {
					return fmt.Errorf("batch put %s failed: %s", r.Key, r.Error)
				}
			}
			for _, it := range batch.Items {
				ack(it.Key, it.Value)
			}

			var keys struct {
				Keys []string `json:"keys"`
			}
			for i := 0; i < 200; i++ {
				keys.Keys = append(keys.Keys, fmt.Sprintf("batch-%d", i))
			}
			body, _ = json.Marshal(keys)
			resp, err = c.Post(srv.URL+"/kv/batch/get", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			var getOut struct {
				Items []batchItem `json:"items"`
			}
			err = json.NewDecoder(resp.Body).Decode(&getOut)
			resp.Body.Close()
			if err != nil {
				return err
			}
			for i, it := range getOut.Items {
				if !it.Found || it.Value != uint64(1000+i) {
					return fmt.Errorf("batch get %s = %+v, want found value %d", it.Key, it, 1000+i)
				}
			}

			if resp, err = c.Get(srv.URL + "/readyz"); err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("readyz before drain: %s", resp.Status)
			}

			// -- Drain under concurrent writers. --
			// Workers hammer puts on distinct keys until refused; every
			// 204 is recorded as acked. The drain starts while they run.
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						key := fmt.Sprintf("drain-%d-%d", w, i)
						val := uint64(w*1_000_000 + i)
						resp, err := put(key, val)
						if err != nil {
							return
						}
						status := resp.StatusCode
						retryAfter := resp.Header.Get("Retry-After")
						resp.Body.Close()
						switch status {
						case http.StatusNoContent:
							ack(key, val)
						case http.StatusServiceUnavailable:
							if retryAfter == "" {
								clientErr <- fmt.Errorf("503 during drain without Retry-After")
							}
							return
						default:
							clientErr <- fmt.Errorf("drain-time put: unexpected %d", status)
							return
						}
					}
				}(w)
			}
			time.Sleep(30 * time.Millisecond) // let the workers land in flight
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err := app.Drain(ctx); err != nil {
				return fmt.Errorf("Drain: %w", err)
			}
			wg.Wait()

			// -- After the drain: refused, not ready, never hung. --
			resp, err = put("late", 1)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				return fmt.Errorf("put after drain: %s, want 503", resp.Status)
			}
			if resp, err = c.Get(srv.URL + "/readyz"); err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				return fmt.Errorf("readyz after drain: %s, want 503", resp.Status)
			}

			st.Stop() // release the mesh: queue is drained, ranks depart
			return nil
		}()
	}()

	_, err := spmd.RunWireLocal(ranks, GateSegBytes(ranks, scale),
		core.Config{Resilient: true}, func(me *core.Rank) {
			if me.ID() < serveRanks {
				sums[me.ID()] = ServeMain(me, scale)
			} else {
				sums[me.ID()] = GatewayMain(me, st, scale)
			}
		})
	if err != nil {
		t.Fatalf("RunWireLocal: %v", err)
	}
	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}

	for r := 1; r < ranks; r++ {
		if sums[r] != sums[0] {
			t.Fatalf("checksum mismatch: rank %d = %#x, rank 0 = %#x", r, sums[r], sums[0])
		}
	}
	want := dht.ExpectedChecksum(acked.pairs)
	if sums[0] != want {
		t.Fatalf("acked-write durability: collective checksum %#x != expected %#x over %d acked pairs",
			sums[0], want, len(acked.pairs))
	}
}
