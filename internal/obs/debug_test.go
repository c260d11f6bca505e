package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDebugPlane exercises the full path: a child state server
// advertising into a state dir, and the launcher handler fanning the
// HTTP queries out to it.
func TestDebugPlane(t *testing.T) {
	withTracing(t)
	dir := t.TempDir()

	Reg().AddSource(4, func() map[string]int64 { return map[string]int64{"upcxx_debug_probe": 11} })
	InitHealth(2)
	MarkDead(1, "heartbeat timeout")
	RingFor(4).Instant(KWireTx, 0, 8, 1)

	stop, err := StartStateServer(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	srv := httptest.NewServer(NewDebugHandler(dir))
	defer srv.Close()

	metrics := get(t, srv, "/debug/metrics")
	if !strings.Contains(metrics, `upcxx_debug_probe{rank="4"} 11`) {
		t.Fatalf("child metrics not served:\n%s", metrics)
	}

	ranks := get(t, srv, "/debug/ranks")
	var rdoc struct {
		Children map[string]string `json:"children"`
		Health   struct {
			Ranks int               `json:"ranks"`
			Dead  map[string]string `json:"dead"`
		} `json:"health"`
	}
	if err := json.Unmarshal([]byte(ranks), &rdoc); err != nil {
		t.Fatalf("/debug/ranks not JSON: %v\n%s", err, ranks)
	}
	if rdoc.Children["4"] != "up" {
		t.Fatalf("child 4 not reported up: %s", ranks)
	}
	if rdoc.Health.Ranks != 2 || rdoc.Health.Dead["1"] != "heartbeat timeout" {
		t.Fatalf("health not propagated: %s", ranks)
	}

	trace := get(t, srv, "/debug/trace")
	sum, err := ValidateTrace([]byte(trace))
	if err != nil {
		t.Fatalf("/debug/trace invalid: %v\n%s", err, trace)
	}
	if sum.Events != 1 || sum.Tids[4] != 1 {
		t.Fatalf("trace snapshot wrong: %+v", sum)
	}
}

// TestDebugLocalFallback: with no children advertised, the handler
// serves this process's own state.
func TestDebugLocalFallback(t *testing.T) {
	t.Cleanup(Reset)
	Reg().reset()
	Reg().AddSource(0, func() map[string]int64 { return map[string]int64{"upcxx_local_probe": 1} })
	InitHealth(1)

	srv := httptest.NewServer(NewDebugHandler(""))
	defer srv.Close()

	if m := get(t, srv, "/debug/metrics"); !strings.Contains(m, `upcxx_local_probe{rank="0"} 1`) {
		t.Fatalf("local metrics not served:\n%s", m)
	}
	if r := get(t, srv, "/debug/ranks"); !strings.Contains(r, `"alive":[0]`) {
		t.Fatalf("local health not served: %s", r)
	}
}
