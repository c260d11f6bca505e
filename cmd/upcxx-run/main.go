// Command upcxx-run launches a registered SPMD program (internal/spmd)
// over a chosen conduit backend — the analog of the upcxx-run launcher
// that real UPC++ installations wrap around GASNet's conduit spawners:
//
//	upcxx-run -n 4 gups                 # in-process backend (goroutine ranks)
//	upcxx-run -n 4 -backend tcp gups    # wire backend: 4 OS processes over localhost TCP
//	upcxx-run -n 4 -backend tcp dht     # aggregated-AM distributed hash table
//	upcxx-run -list                     # registered programs (also shown on a missing name)
//
// With -backend tcp the command re-executes itself once per rank; the
// children listen for active messages on private TCP ports, rendezvous
// with the parent to exchange addresses, connect a full mesh, and run
// the program over the wire conduit. Rank 0 prints one line:
//
//	<prog> ranks=<n> scale=<s> checksum=<hex>
//
// The line is backend-independent — the same program at the same size
// must produce the same checksum on both backends — which is what the
// CI smoke job asserts.
//
// Chaos mode injects a fault plan (internal/fault) into the job:
//
//	upcxx-run -n 4 -backend tcp -chaos "kill:rank=2,at=500ms" dhtchaos
//
// Transport rules (drop/delay/sever) act inside each rank's transport;
// kill rules hard-exit the doomed wire rank (exit code 3, which the
// parent treats as scripted) or mark it dead in-process. The reporting
// rank is the lowest rank the plan does not kill, so a chaos run still
// prints the one checksum line CI compares against the fault-free run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"

	"upcxx/internal/core"
	"upcxx/internal/fault"
	"upcxx/internal/obs"
	"upcxx/internal/spmd"
	_ "upcxx/internal/svc" // registers the gateserve program
)

// Children find their identity and the parent's rendezvous address in
// these environment variables.
const (
	envRank       = "UPCXX_RUN_RANK"
	envRanks      = "UPCXX_RUN_RANKS"
	envRendezvous = "UPCXX_RUN_RENDEZVOUS"
	envPPN        = "UPCXX_RUN_PPN"      // procs per node; >0 selects the hier conduit
	envShmDir     = "UPCXX_RUN_SHMDIR"   // job-wide shm segment directory (parent-owned)
	envTraceDir   = "UPCXX_RUN_TRACEDIR" // per-rank Chrome trace dump directory (-trace)
	envDebugDir   = "UPCXX_RUN_DEBUGDIR" // per-rank debug state-server directory (-debug-addr)
)

func main() {
	n := flag.Int("n", 4, "SPMD ranks")
	backend := flag.String("backend", "proc", "conduit backend: proc (in-process), tcp (one OS process per rank) or hier (processes sharing mmap'd segments per virtual host)")
	ppn := flag.Int("procs-per-node", 0, "ranks per virtual host (0 = backend default: 1, or n for -backend hier); >1 with tcp upgrades to hier")
	scale := flag.Int("scale", 0, "program size knob (0 = program default)")
	rdvTimeout := flag.Duration("rendezvous-timeout", spmd.RendezvousTimeout,
		"deadline for the tcp backend's address rendezvous (raise for slow or congested hosts)")
	chaos := flag.String("chaos", "", `fault plan, e.g. "kill:rank=2,at=500ms" or "drop:rank=0,peer=1,op=3" (see internal/fault)`)
	gateway := flag.String("gateway", "", "launch an upcxx-gate HTTP front door on this address as rank n of the job (tcp backend, gateway program); SIGTERM to the launcher drains it gracefully")
	traceDir := flag.String("trace", "", "enable runtime tracing; per-rank Chrome trace dumps land in this directory, merged into <dir>/trace.json on exit (open in Perfetto)")
	debugAddr := flag.String("debug-addr", "", "serve the live debug endpoint (/debug/metrics, /debug/trace, /debug/ranks, pprof) on this address, e.g. 127.0.0.1:8090")
	verbose := flag.Int("v", 0, "runtime log verbosity, 0 = silent (UPCXX_VERBOSE sets the same level)")
	list := flag.Bool("list", false, "list registered programs")
	flag.Parse()

	if *verbose > 0 {
		obs.SetVerbosity(*verbose)
	}

	var plan *fault.Plan
	if *chaos != "" {
		var err error
		if plan, err = fault.Parse(*chaos); err != nil {
			fmt.Fprintln(os.Stderr, "upcxx-run: -chaos:", err)
			os.Exit(2)
		}
	}

	// Children inherit the flag through re-execution of os.Args, so the
	// whole job — parent accept loop and every child's dial — shares one
	// deadline.
	if *rdvTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "upcxx-run: -rendezvous-timeout must be positive")
		os.Exit(2)
	}
	spmd.RendezvousTimeout = *rdvTimeout

	if *list {
		listPrograms(os.Stdout)
		return
	}
	// A missing or unknown program name prints the registry instead of
	// a bare error, so `upcxx-run` with no arguments is self-documenting.
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: upcxx-run [-n ranks] [-backend proc|tcp] [-scale k] <prog>")
		fmt.Fprintln(os.Stderr, "registered programs:")
		listPrograms(os.Stderr)
		os.Exit(2)
	}
	prog, ok := spmd.Lookup(flag.Arg(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "upcxx-run: unknown program %q; registered programs:\n", flag.Arg(0))
		listPrograms(os.Stderr)
		os.Exit(2)
	}
	if *scale == 0 {
		*scale = prog.DefaultScale
	}
	if *n < 1 {
		fmt.Fprintln(os.Stderr, "upcxx-run: -n must be >= 1")
		os.Exit(2)
	}

	// A gateway job is heterogeneous: n compute ranks running a gateway
	// program plus the upcxx-gate binary as rank n. The pieces only fit
	// together one way, so reject every other combination up front — in
	// particular a gateway program run standalone, which would park its
	// ranks forever waiting for a drain broadcast that never comes.
	if prog.Gateway && *gateway == "" {
		fmt.Fprintf(os.Stderr, "upcxx-run: program %q is the compute half of a gateway job and would hang standalone; launch it with -gateway <addr>\n", prog.Name)
		os.Exit(2)
	}
	if *gateway != "" {
		switch {
		case !prog.Gateway:
			fmt.Fprintf(os.Stderr, "upcxx-run: -gateway needs a gateway program (got %q); see -list\n", prog.Name)
			os.Exit(2)
		case *backend != "tcp" || *ppn > 1:
			fmt.Fprintln(os.Stderr, "upcxx-run: -gateway requires -backend tcp (the gateway is its own OS process joining the wire mesh)")
			os.Exit(2)
		case plan != nil:
			fmt.Fprintln(os.Stderr, "upcxx-run: -gateway does not combine with -chaos; TestChaosZeroAckedLoss in internal/svc covers fault injection against a gateway")
			os.Exit(2)
		}
	}

	// Resolve the topology. The hier backend groups ranks onto virtual
	// hosts ppn at a time; tcp with ppn>1 is the same job, so it
	// upgrades, and a bare "-procs-per-node K" (no explicit -backend)
	// selects hier outright. An explicit "-backend proc" keeps the
	// in-process engine but labels ranks with the same topology, so
	// proc and hier runs of a locality-sensitive program compare
	// checksums. ppn is clamped to n: "-n 2 -procs-per-node 4" is a
	// one-host job, exactly as a real cluster launch would pack it.
	backendSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "backend" {
			backendSet = true
		}
	})
	if !backendSet && *ppn > 1 {
		*backend = "hier"
	}
	if *ppn == 0 {
		if *backend == "hier" {
			*ppn = *n
		} else {
			*ppn = 1
		}
	}
	if *ppn < 0 {
		fmt.Fprintln(os.Stderr, "upcxx-run: -procs-per-node must be >= 1")
		os.Exit(2)
	}
	if *ppn > *n {
		*ppn = *n
	}
	if *backend == "tcp" && *ppn > 1 {
		*backend = "hier"
	}

	if rankStr := os.Getenv(envRank); rankStr != "" {
		runChild(prog, *scale, rankStr, plan)
		return
	}

	switch *backend {
	case "proc":
		runProc(prog, *n, *scale, *ppn, plan, *traceDir, *debugAddr)
	case "tcp":
		runTCP(prog, *n, *scale, 0, plan, *traceDir, *debugAddr, *gateway)
	case "hier":
		runTCP(prog, *n, *scale, *ppn, plan, *traceDir, *debugAddr, "")
	default:
		fmt.Fprintf(os.Stderr, "upcxx-run: unknown backend %q (want proc, tcp or hier)\n", *backend)
		os.Exit(2)
	}
}

// listPrograms prints the spmd program registry, one line per program.
func listPrograms(w io.Writer) {
	for _, p := range spmd.Progs() {
		fmt.Fprintf(w, "%-8s (scale %d) %s\n", p.Name, p.DefaultScale, p.Desc)
	}
}

func report(prog spmd.Prog, n, scale int, sum uint64) {
	fmt.Printf("%s ranks=%d scale=%d checksum=%016x\n", prog.Name, n, scale, sum)
}

// reportRank is the rank whose checksum the launcher prints: the
// lowest one the plan does not kill (-1 if it kills them all).
func reportRank(n int, plan *fault.Plan) int {
	for r := 0; r < n; r++ {
		if !plan.KillsRank(r) {
			return r
		}
	}
	return -1
}

// runProc executes the program on the in-process backend: one goroutine
// per rank over the virtual-time engine, as upcxx.Run does. The ppn
// topology is passed through so LocalTeam membership matches what the
// same command line produces on the wire backends. All ranks live in
// this one process, so -trace dumps a single process trace holding
// every rank's ring and -debug-addr serves this process's own state.
func runProc(prog spmd.Prog, n, scale, ppn int, plan *fault.Plan, traceDir, debugAddr string) {
	obs.InitHealth(n)
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "upcxx-run: -trace:", err)
			os.Exit(1)
		}
		obs.SetTracing(true)
	}
	if debugAddr != "" {
		bound, stop, err := obs.ServeDebug(debugAddr, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "upcxx-run: -debug-addr:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "upcxx-run: debug endpoint on http://%s/debug/\n", bound)
	}
	rep := reportRank(n, plan)
	var sum uint64
	core.Run(core.Config{
		Ranks:        n,
		SegmentBytes: prog.SegBytes(n, scale),
		Fault:        plan,
		Nodes:        spmd.HierNodes(n, ppn),
	}, func(me *core.Rank) {
		s := prog.Run(me, scale)
		if me.ID() == rep {
			sum = s
		}
	})
	if traceDir != "" {
		if err := obs.DumpTraceFile(traceDir, 0); err != nil {
			fmt.Fprintln(os.Stderr, "upcxx-run: trace dump:", err)
		}
		mergeTrace(traceDir)
	}
	if rep >= 0 {
		report(prog, n, scale, sum)
	}
}

// mergeTrace folds every per-process trace dump in dir into one
// clock-aligned dir/trace.json, ready for Perfetto / chrome://tracing.
func mergeTrace(dir string) {
	out := filepath.Join(dir, "trace.json")
	events, err := obs.MergeTraceDir(dir, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upcxx-run: merging traces:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "upcxx-run: merged %d trace events into %s\n", events, out)
}

// runTCP is the parent side of the wire launch: spawn one child process
// per rank, serve the address rendezvous, and propagate failures. With
// ppn > 0 the job is hierarchical: the parent owns a temp directory of
// mmap'd segment files that co-located children share, and tells the
// children their topology through the environment.
//
// A non-empty gateway address grows the job by one rank: the upcxx-gate
// binary (expected beside this executable) joins the same rendezvous as
// rank n and serves HTTP on that address. The launcher then also
// forwards SIGTERM/SIGINT to the gateway so `kill -TERM <launcher>`
// drains the whole job gracefully, and it spawns every child in its own
// process group so a terminal interrupt reaches the job only through
// that forwarding path.
func runTCP(prog spmd.Prog, n, scale, ppn int, plan *fault.Plan, traceDir, debugAddr, gateway string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "upcxx-run:", err)
		os.Exit(1)
	}
	defer ln.Close()

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "upcxx-run:", err)
		os.Exit(1)
	}
	var tmpDirs []string
	cleanup := func() {
		for _, d := range tmpDirs {
			os.RemoveAll(d)
		}
	}
	defer cleanup()
	var shmDir string
	if ppn > 0 {
		if shmDir, err = os.MkdirTemp("", "upcxx-run-shm-"); err != nil {
			fmt.Fprintln(os.Stderr, "upcxx-run:", err)
			os.Exit(1)
		}
		tmpDirs = append(tmpDirs, shmDir)
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "upcxx-run: -trace:", err)
			os.Exit(1)
		}
	}
	// The debug endpoint runs on the launcher, aggregating child state:
	// every child opens a tiny loopback state server and drops its
	// address into a parent-owned directory; the HTTP handlers fan out.
	var debugDir string
	if debugAddr != "" {
		if debugDir, err = os.MkdirTemp("", "upcxx-run-debug-"); err != nil {
			fmt.Fprintln(os.Stderr, "upcxx-run:", err)
			os.Exit(1)
		}
		tmpDirs = append(tmpDirs, debugDir)
		bound, stop, serr := obs.ServeDebug(debugAddr, debugDir)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "upcxx-run: -debug-addr:", serr)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "upcxx-run: debug endpoint on http://%s/debug/\n", bound)
	}
	// With a gateway the wire job has one more rank than -n says, and the
	// rendezvous diagnostic labels it by role: a timeout reports
	// "missing: [gateway]" rather than a bare rank number.
	total := n
	if gateway != "" {
		total = n + 1
	}
	rdvErr := make(chan error, 1)
	go func() {
		rdvErr <- spmd.RendezvousWithNames(ln, total, func(rank int) string {
			if gateway != "" && rank == n {
				return "gateway"
			}
			return ""
		})
	}()

	children := make([]*exec.Cmd, 0, total)
	for i := 0; i < n; i++ {
		c := exec.Command(exe, os.Args[1:]...)
		c.Stdout = os.Stdout
		c.Stderr = os.Stderr
		c.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(i),
			envRanks+"="+strconv.Itoa(total),
			envRendezvous+"="+ln.Addr().String(),
		)
		if gateway != "" {
			// Own process group: a terminal ^C must not tear the compute
			// mesh down under the gateway mid-drain.
			c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		}
		if ppn > 0 {
			c.Env = append(c.Env,
				envPPN+"="+strconv.Itoa(ppn),
				envShmDir+"="+shmDir,
			)
		}
		if traceDir != "" {
			c.Env = append(c.Env, envTraceDir+"="+traceDir)
		}
		if debugDir != "" {
			c.Env = append(c.Env, envDebugDir+"="+debugDir)
		}
		if err := c.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "upcxx-run: spawning rank %d: %v\n", i, err)
			for _, prev := range children {
				prev.Process.Kill()
			}
			os.Exit(1)
		}
		children = append(children, c)
	}
	if gateway != "" {
		// The gateway binary lives beside the launcher (both come out of
		// `go build ./cmd/...`).
		gateExe := filepath.Join(filepath.Dir(exe), "upcxx-gate")
		c := exec.Command(gateExe,
			"-addr", gateway,
			"-scale", strconv.Itoa(scale),
			"-rendezvous-timeout", spmd.RendezvousTimeout.String(),
		)
		c.Stdout = os.Stdout
		c.Stderr = os.Stderr
		c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		c.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(n),
			envRanks+"="+strconv.Itoa(total),
			envRendezvous+"="+ln.Addr().String(),
		)
		if err := c.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "upcxx-run: spawning gateway (%s): %v\n", gateExe, err)
			for _, prev := range children {
				prev.Process.Kill()
			}
			os.Exit(1)
		}
		children = append(children, c)

		// The launcher is the job's pid: forward shutdown signals to the
		// gateway, whose drain releases the compute ranks in turn.
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
		defer signal.Stop(sigs)
		go func() {
			for range sigs {
				c.Process.Signal(syscall.SIGTERM)
			}
		}()
	}

	// exitCode propagates the first failing child's own status (a rank
	// that os.Exit(k)s surfaces as k here, not a generic 1), so scripts
	// above the launcher can tell an assertion failure from a crash.
	exitCode := 0
	for i, c := range children {
		label := fmt.Sprintf("rank %d", i)
		if gateway != "" && i == n {
			label = "gateway rank"
		}
		err := c.Wait()
		if err == nil {
			continue
		}
		// A rank the plan kills exits with ChaosExitCode from the armed
		// timer — a scripted death, not a job failure. (It exits 0
		// instead if the program finished before its death time.)
		var xerr *exec.ExitError
		if errors.As(err, &xerr) && xerr.ExitCode() == core.ChaosExitCode {
			if plan.KillsRank(i) {
				fmt.Fprintf(os.Stderr, "upcxx-run: %s killed by fault plan\n", label)
				continue
			}
			fmt.Fprintf(os.Stderr, "upcxx-run: %s exited with the chaos status %d but the plan does not kill it\n",
				label, core.ChaosExitCode)
		} else if errors.As(err, &xerr) {
			fmt.Fprintf(os.Stderr, "upcxx-run: %s exited with status %d\n", label, xerr.ExitCode())
		} else {
			fmt.Fprintf(os.Stderr, "upcxx-run: %s: %v\n", label, err)
		}
		if exitCode == 0 {
			if errors.As(err, &xerr) && xerr.ExitCode() > 0 {
				exitCode = xerr.ExitCode()
			} else {
				exitCode = 1
			}
		}
	}
	if err := <-rdvErr; err != nil && exitCode == 0 {
		fmt.Fprintln(os.Stderr, "upcxx-run:", err)
		exitCode = 1
	}
	// Merge whatever the children managed to dump even on failure — a
	// partial trace of a wedged or crashed job is exactly when you want
	// the timeline.
	if traceDir != "" {
		mergeTrace(traceDir)
	}
	if exitCode != 0 {
		cleanup() // os.Exit skips the deferred cleanup
		os.Exit(exitCode)
	}
}

// runChild is one rank of the wire job (re-executed by runTCP; the
// -chaos flag rides along in os.Args, so every child parses the same
// plan the parent did).
func runChild(prog spmd.Prog, scale int, rankStr string, plan *fault.Plan) {
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "upcxx-run: bad %s=%q\n", envRank, rankStr)
		os.Exit(1)
	}
	n, err := strconv.Atoi(os.Getenv(envRanks))
	if err != nil || n < 1 {
		fmt.Fprintf(os.Stderr, "upcxx-run: bad %s=%q\n", envRanks, os.Getenv(envRanks))
		os.Exit(1)
	}
	rdv := os.Getenv(envRendezvous)
	obs.InitHealth(n)
	traceDir := os.Getenv(envTraceDir)
	if traceDir != "" {
		obs.SetTracing(true)
		defer obs.InstallTraceSignal(traceDir, rank)()
	}
	if debugDir := os.Getenv(envDebugDir); debugDir != "" {
		if stop, serr := obs.StartStateServer(debugDir, rank); serr != nil {
			fmt.Fprintf(os.Stderr, "upcxx-run: rank %d: state server: %v\n", rank, serr)
		} else {
			defer stop()
		}
	}
	cfg := core.Config{
		Resilient: prog.Resilient || plan != nil,
		Fault:     plan,
		// A real process backs this rank, so a kill rule may genuinely
		// end it (core.ChaosArm arms the exit timer).
		ChaosProcessExit: true,
	}
	rep := reportRank(n, plan)
	var sum uint64
	body := func(me *core.Rank) {
		s := prog.Run(me, scale)
		if me.ID() == rep {
			sum = s
		}
	}
	// A shm directory makes this a hierarchical child: co-located ranks
	// share mmap'd segments, packed ppn to a host.
	shmDir, ppn := os.Getenv(envShmDir), 1
	if shmDir != "" {
		if ppn, err = strconv.Atoi(os.Getenv(envPPN)); err != nil || ppn < 1 {
			fmt.Fprintf(os.Stderr, "upcxx-run: bad %s=%q\n", envPPN, os.Getenv(envPPN))
			os.Exit(1)
		}
	}
	_, err = spmd.RunChild(rdv, rank, n, ppn, prog.SegBytes(n, scale), shmDir, cfg, body)
	if traceDir != "" {
		if derr := obs.DumpTraceFile(traceDir, rank); derr != nil {
			fmt.Fprintf(os.Stderr, "upcxx-run: rank %d: trace dump: %v\n", rank, derr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "upcxx-run: rank %d: %v\n", rank, err)
		os.Exit(1)
	}
	if rank == rep {
		report(prog, n, scale, sum)
	}
}
