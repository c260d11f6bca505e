// Command upcxx-gate is the HTTP/JSON front door of a gateway job: it
// joins a running compute mesh as one extra client rank and translates
// REST traffic into aggregated DHT operations.
//
//	PUT  /kv/{key}        store one value (bare decimal or {"value":N})
//	GET  /kv/{key}        read one key (404 when absent)
//	POST /kv/batch/put    {"items":[{"key":K,"value":N},...]}
//	POST /kv/batch/get    {"keys":[K,...]}
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (200 only after rendezvous + DHT attach)
//	GET  /debug/metrics   runtime + service counters (Prometheus text)
//
// The usual way to start one is through the launcher, which assembles
// the whole job:
//
//	upcxx-run -n 4 -backend tcp -gateway 127.0.0.1:8080 gateserve
//
// upcxx-run spawns the n compute ranks and this binary as rank n of
// the same wire job, all meeting at one rendezvous. The binary can
// also be started by hand against a hand-built mesh by setting the
// same environment (UPCXX_RUN_RANK/RANKS/RENDEZVOUS).
//
// Shutdown is a graceful drain, triggered by SIGTERM or SIGINT: stop
// admitting (readyz goes 503, requests get 503 + Retry-After), let the
// in-flight requests finish, flush the aggregation plane, broadcast
// the release to the compute ranks, and leave the mesh through the
// collective checksum — every acknowledged write is on the wire and
// replicated before the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"upcxx/internal/core"
	"upcxx/internal/obs"
	"upcxx/internal/spmd"
	"upcxx/internal/svc"
)

// The launcher hands the gateway its mesh identity through the same
// environment the compute children use, plus the gate-specific knobs.
const (
	envRank       = "UPCXX_RUN_RANK"
	envRanks      = "UPCXX_RUN_RANKS"
	envRendezvous = "UPCXX_RUN_RENDEZVOUS"
	envGateAddr   = "UPCXX_GATE_ADDR"
	envGateScale  = "UPCXX_GATE_SCALE"
)

func main() {
	addr := flag.String("addr", envOr(envGateAddr, "127.0.0.1:8080"), "HTTP listen address")
	scale := flag.Int("scale", envIntOr(envGateScale, 0), "distinct keys the job is provisioned for (0 = default)")
	maxInFlight := flag.Int("max-in-flight", 0, "admitted-request bound; one more gets 429 (0 = default 1024)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request deadline, expiry maps to 504 (0 = default 5s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on the SIGTERM drain of in-flight requests")
	rdvTimeout := flag.Duration("rendezvous-timeout", spmd.RendezvousTimeout, "deadline for the mesh address rendezvous")
	verifyKeys := flag.Bool("verify-keys", false, "collision-check string-key hashing (costs one map entry per distinct key)")
	verbose := flag.Int("v", 0, "runtime log verbosity, 0 = silent")
	flag.Parse()

	if *verbose > 0 {
		obs.SetVerbosity(*verbose)
	}
	spmd.RendezvousTimeout = *rdvTimeout

	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		fatalf("bad or missing %s=%q (start through upcxx-run -gateway, or set the mesh identity by hand)",
			envRank, os.Getenv(envRank))
	}
	ranks, err := strconv.Atoi(os.Getenv(envRanks))
	if err != nil || ranks < 2 || rank < 0 || rank >= ranks {
		fatalf("bad %s=%q for rank %d (a gateway job needs at least one compute rank)",
			envRanks, os.Getenv(envRanks), rank)
	}
	rdv := os.Getenv(envRendezvous)
	if rdv == "" {
		fatalf("missing %s (the launcher's rendezvous address)", envRendezvous)
	}

	st := svc.NewDHTStore(svc.StoreConfig{VerifyKeys: *verifyKeys})
	app := svc.New(st, svc.Config{MaxInFlight: *maxInFlight, RequestTimeout: *reqTimeout})
	// The application-layer counters ride the same /debug/metrics the
	// runtime serves (GatewayMain adds the store's own).
	defer obs.Reg().AddSource(rank, func() map[string]int64 {
		out := make(map[string]int64)
		for k, v := range app.Counters() {
			out[k] = int64(v)
		}
		return out
	})()

	// The HTTP side comes up before the mesh side: the listener binds
	// first so /healthz and a 503 /readyz answer while rendezvous runs,
	// which is what makes readiness observable as a state change.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	srv := &http.Server{Handler: svc.Handler(app)}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "upcxx-gate: serving http://%s/kv/ (rank %d of %d, rendezvous %s)\n",
		ln.Addr(), rank, ranks, rdv)

	// SIGTERM/SIGINT begins the drain: refuse new work, finish what is
	// in flight, then drain the store queue — Serve's return on the
	// SPMD goroutine carries the shutdown into the mesh departure.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "upcxx-gate: %v: draining (in-flight bound %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := app.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "upcxx-gate: drain: %v (departing anyway)\n", err)
		}
		srv.Shutdown(ctx)
		st.Stop()
	}()

	// The main goroutine is the SPMD rank: rendezvous, connect, pump
	// the op queue until the drain, then leave through the collective.
	meshFatal := func(err error) {
		// A rendezvous expiry on a heterogeneous job must say which side
		// was missing; the parent's diagnostic names the gateway rank, so
		// here the useful hint is the other half.
		if strings.Contains(err.Error(), "rendezvous") {
			fatalf("%v\n  (is the compute mesh up? upcxx-run -gateway starts both sides)", err)
		}
		fatalf("%v", err)
	}
	var sum uint64
	_, err = spmd.RunChild(rdv, rank, ranks, 1, svc.GateSegBytes(ranks, *scale), "",
		core.Config{Resilient: true}, func(me *core.Rank) {
			sum = svc.GatewayMain(me, st, *scale)
		})
	if err != nil {
		meshFatal(err)
	}
	srv.Close()
	if err := <-httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "upcxx-gate: http: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "upcxx-gate: departed cleanly, checksum=%016x\n", sum)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func envIntOr(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "upcxx-gate: "+format+"\n", args...)
	os.Exit(1)
}
