package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"upcxx/benchmark/measure"
	"upcxx/benchmark/sut"
)

// gate_kv sizing. Two workers on two keep-alive connections is all a
// 2-core box can drive without the generator starving the mesh; the
// key population matches the gateway's default provisioning, and
// zipf s=1.07 is the skew the program's own gateway experiment uses.
const (
	gateComputeRanks = 2
	gateWorkers      = 2
	gateKeys         = 1 << 16
	gateZipfS        = 1.07
	gatePreloadBatch = 64
	gateWarmupOps    = 20000
	gateMaxInFlight  = 64 // far above the 2 in flight: admission must never reject here
)

// keyStream draws one worker's keys: zipf-distributed over the stripe
// of the key space the worker owns (indices congruent to the worker
// modulo the worker count). Disjoint stripes mean no other client ever
// writes a worker's keys, so every GET has exactly one right answer:
// the worker's last acknowledged PUT.
type keyStream struct {
	rng             *rand.Rand
	zipf            *rand.Zipf
	worker, workers int
}

func newKeyStream(seed int64, worker, workers, keys int) *keyStream {
	rng := rand.New(rand.NewSource(seed ^ int64(mix64(uint64(worker)+1))))
	return &keyStream{
		rng:    rng,
		zipf:   rand.NewZipf(rng, gateZipfS, 1, uint64(keys/workers-1)),
		worker: worker, workers: workers,
	}
}

// next returns the next key index and whether the operation is a GET
// (half of them) and, for a PUT, the value to store.
func (k *keyStream) next() (idx int, get bool, val uint64) {
	idx = int(k.zipf.Uint64())*k.workers + k.worker
	get = k.rng.Int63()&1 == 0
	return idx, get, k.rng.Uint64()
}

// gateClient is one worker: its connection, key stream and the shadow
// copy of its stripe (the last value the gateway acknowledged per key).
type gateClient struct {
	id     int
	http   *http.Client
	urls   []string // by key index
	keys   *keyStream
	shadow []uint64 // by key index; only this worker's stripe is used
	res    Result   // attempted / failed
	seq    uint64
	n5xx   int64
}

type kvItem struct {
	Key   string `json:"key"`
	Value uint64 `json:"value"`
	Found bool   `json:"found"`
}

// roundTrip sends one request and reads the whole reply, recording the
// two halves as child spans of parent.
func (c *gateClient) roundTrip(req *http.Request, k *measure.Track, parent int32) (int, []byte, error) {
	id := k.Begin("http.roundtrip", time.Now(), parent, c.seq)
	resp, err := c.http.Do(req)
	k.End(id, time.Now())
	if err != nil {
		return 0, nil, err
	}
	id = k.Begin("http.body", time.Now(), parent, c.seq)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	k.End(id, time.Now())
	if resp.StatusCode >= 500 {
		c.n5xx++
	}
	return resp.StatusCode, body, err
}

// op issues one single-key operation and checks its result.
func (c *gateClient) op(rec *measure.Recorder) (done bool) {
	idx, get, val := c.keys.next()
	c.seq++
	c.res.Attempted++
	k := rec.Track()
	kind, name, method := measure.KindPut, "gate.put", http.MethodPut
	if get {
		kind, name, method = measure.KindGet, "gate.get", http.MethodGet
	}
	t0 := time.Now()
	span := k.Begin(name, t0, -1, c.seq)
	var req *http.Request
	if get {
		req, _ = http.NewRequest(method, c.urls[idx], nil)
	} else {
		req, _ = http.NewRequest(method, c.urls[idx], strings.NewReader(strconv.FormatUint(val, 10)))
	}
	status, reply, err := c.roundTrip(req, k, span)
	t1 := time.Now()
	k.End(span, t1)

	switch {
	case err != nil:
		c.res.fail("worker %d %s %s: %v", c.id, method, c.urls[idx], err)
	case get:
		var it kvItem
		if status != http.StatusOK || json.Unmarshal(reply, &it) != nil || it.Value != c.shadow[idx] {
			c.res.fail("worker %d GET %s: status %d body %q, last acked value %d", c.id, c.urls[idx], status, reply, c.shadow[idx])
		}
	case status == http.StatusNoContent:
		c.shadow[idx] = val
	default:
		c.res.fail("worker %d PUT %s: status %d", c.id, c.urls[idx], status)
	}
	if rec == nil {
		return false
	}
	return rec.Op(kind, t0, t1, 1)
}

// postJSON posts in to a batch endpoint and decodes the 200 reply into
// out.
func (c *gateClient) postJSON(url string, in, out any) error {
	body, _ := json.Marshal(in)
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	status, reply, err := c.roundTrip(req, nil, -1)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return json.Unmarshal(reply, out)
}

// stripeBatches calls fn with the worker's key indices, gatePreloadBatch
// at a time.
func (c *gateClient) stripeBatches(fn func(idx []int)) {
	var batch []int
	for i := c.id; i < len(c.shadow); i += c.keys.workers {
		if batch = append(batch, i); len(batch) == gatePreloadBatch {
			fn(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		fn(batch)
	}
}

// preload stores a seeded value under every key of the stripe through
// the batch endpoint.
func (c *gateClient) preload(base string, names []string, seed int64) {
	c.stripeBatches(func(idx []int) {
		var in struct {
			Items []kvItem `json:"items"`
		}
		for _, i := range idx {
			c.shadow[i] = mix64(uint64(seed) ^ uint64(i)<<20)
			in.Items = append(in.Items, kvItem{Key: names[i], Value: c.shadow[i]})
		}
		var out struct {
			Results []struct {
				OK bool `json:"ok"`
			} `json:"results"`
		}
		c.res.Attempted += int64(len(idx))
		if err := c.postJSON(base+"/kv/batch/put", in, &out); err != nil || len(out.Results) != len(idx) {
			c.res.fail("worker %d preload batch from %s: %d results, err %v", c.id, names[idx[0]], len(out.Results), err)
			return
		}
		for j, r := range out.Results {
			if !r.OK {
				c.res.fail("worker %d preload key %s refused", c.id, names[idx[j]])
			}
		}
	})
}

// reread fetches every key of the stripe after the window and counts
// those whose stored value is not the last one acknowledged: a lost or
// corrupted acked write.
func (c *gateClient) reread(base string, names []string) {
	c.stripeBatches(func(idx []int) {
		var in struct {
			Keys []string `json:"keys"`
		}
		for _, i := range idx {
			in.Keys = append(in.Keys, names[i])
		}
		var out struct {
			Items []kvItem `json:"items"`
		}
		c.res.Attempted += int64(len(idx))
		if err := c.postJSON(base+"/kv/batch/get", in, &out); err != nil || len(out.Items) != len(idx) {
			c.res.fail("worker %d re-read batch from %s: %d items, err %v", c.id, names[idx[0]], len(out.Items), err)
			return
		}
		for j, it := range out.Items {
			if !it.Found || it.Value != c.shadow[idx[j]] {
				c.res.fail("worker %d lost acked write: key %s holds %d (found=%v), acked %d",
					c.id, in.Keys[j], it.Value, it.Found, c.shadow[idx[j]])
			}
		}
	})
}

// gateJob is a running in-process gateway job: compute ranks plus the
// gateway rank on a resilient loopback wire mesh, fronted by the
// production mux behind a real http.Server.
type gateJob struct {
	base string // http://host:port
	st   *sut.DHTStore
	app  *sut.Service

	srv      *http.Server
	served   chan struct{}
	meshDone chan struct{}
	stats    []sut.Stats
	meshErr  error
	sums     []uint64
}

// startGate assembles the job for `keys` distinct keys and returns once
// the gateway is serving.
func startGate(keys int) (*gateJob, error) {
	total := gateComputeRanks + 1
	j := &gateJob{
		st:       sut.NewDHTStore(sut.StoreConfig{}),
		served:   make(chan struct{}),
		meshDone: make(chan struct{}),
		sums:     make([]uint64, total),
	}
	j.app = sut.NewService(j.st, sut.SvcConfig{MaxInFlight: gateMaxInFlight, RequestTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	j.base = "http://" + ln.Addr().String()
	j.srv = &http.Server{Handler: sut.Handler(j.app)}
	go func() {
		defer close(j.served)
		_ = j.srv.Serve(ln) // returns ErrServerClosed from stop
	}()
	go func() {
		defer close(j.meshDone)
		j.stats, j.meshErr = sut.RunWireLocal(total, sut.GateSegBytes(total, keys), sut.Config{Resilient: true},
			func(me *sut.Rank) {
				if me.ID() == gateComputeRanks {
					j.sums[me.ID()] = sut.GatewayMain(me, j.st, keys)
				} else {
					j.sums[me.ID()] = sut.ServeMain(me, keys)
				}
			})
	}()
	for !j.st.Ready() {
		select {
		case <-j.meshDone:
			j.srv.Close()
			<-j.served
			return nil, fmt.Errorf("gateway mesh ended before serving: %v", j.meshErr)
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
	return j, nil
}

// stop drains the store, lets every rank leave through the closing
// checksum collective and shuts the HTTP server. It reports whether the
// ranks agreed on the table's checksum.
func (j *gateJob) stop() (agree bool, err error) {
	j.st.Stop()
	<-j.meshDone
	j.srv.Close()
	<-j.served
	agree = true
	for _, s := range j.sums {
		agree = agree && s == j.sums[0]
	}
	return agree, j.meshErr
}

// newHTTPClient returns a client that keeps at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
	}}
}

// GateKV is the gateway workload: 50 % PUT /kv/{key}, 50 % GET, zipf
// keys, two closed-loop workers.
func GateKV(p Params) *Result {
	res := &Result{}
	keys := p.scaled(gateKeys, 1024)
	job, err := startGate(keys)
	if err != nil {
		res.fail("gate_kv: %v", err)
		return res
	}
	names := make([]string, keys)
	urls := make([]string, keys)
	for i := range names {
		names[i] = "k" + strconv.Itoa(i)
		urls[i] = job.base + "/kv/" + names[i]
	}
	httpc := newHTTPClient(gateWorkers)
	defer httpc.CloseIdleConnections()
	clients := make([]*gateClient, gateWorkers)
	for i := range clients {
		clients[i] = &gateClient{id: i, http: httpc, urls: urls,
			keys: newKeyStream(p.Seed, i, gateWorkers, keys), shadow: make([]uint64, keys)}
	}
	each := func(fn func(c *gateClient)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *gateClient) {
				defer wg.Done()
				fn(c)
			}(c)
		}
		wg.Wait()
	}

	each(func(c *gateClient) {
		c.preload(job.base, names, p.Seed)
		for i := 0; i < p.scaled(gateWarmupOps, 500)/gateWorkers; i++ {
			c.op(nil)
		}
	})

	w := p.beginWindow(res)
	recs := make([]*measure.Recorder, len(clients))
	for i := range recs {
		recs[i] = w.recorder(int(p.Window.Seconds()*15000), i)
	}
	each(func(c *gateClient) {
		for !c.op(recs[c.id]) {
		}
	})
	w.end(res, recs...)
	each(func(c *gateClient) { c.reread(job.base, names) })

	agree, err := job.stop()
	if err != nil || !agree {
		res.fail("gate_kv: closing checksum disagreement or mesh error: agree=%v err=%v sums=%x", agree, err, job.sums)
	}
	res.foldCounters(job.stats)
	for k, v := range job.app.Counters() {
		res.Counters[k] = v
	}
	for _, c := range clients {
		res.Attempted += c.res.Attempted
		res.Failed += c.res.Failed
		res.Counters["client.5xx"] += float64(c.n5xx)
		res.Counters["client.requests"] += float64(c.seq)
	}
	return res
}
