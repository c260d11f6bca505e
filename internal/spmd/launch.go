package spmd

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"upcxx/internal/core"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/segment"
	"upcxx/internal/transport"
)

// RendezvousTimeout bounds the whole address exchange, and separately
// the mesh connect after it. A rank that dies before registering (or a
// parent that dies before answering), or after registering but before
// dialing, would otherwise hang every surviving process forever;
// localhost rendezvous and connect complete in milliseconds, so expiry
// always means a lost peer. The
// default suits localhost; launchers spawning ranks across slow or
// congested hosts may raise it (upcxx-run's -rendezvous-timeout flag),
// and tests may shrink it. Set it before any rendezvous begins.
var RendezvousTimeout = 30 * time.Second

// Launch protocol for multi-process wire jobs, shared by the upcxx-run
// launcher and the in-process tests: every rank listens for active
// messages on its own TCP port, announces that address to a rendezvous
// point, receives the full address table back, and connects the mesh.
// The wire format is one text line each way:
//
//	child -> parent:  "<rank> <am-address>\n"
//	parent -> child:  "<addr0> <addr1> ... <addrN-1>\n"

// Rendezvous runs the parent side: it accepts n registrations on ln and
// answers each with the complete address table. It returns once every
// child has been answered.
func Rendezvous(ln net.Listener, n int) error {
	return RendezvousWithNames(ln, n, nil)
}

// RendezvousWithNames is Rendezvous with launcher-assigned role names:
// name(rank), when non-nil, labels each rank in the timeout diagnostic
// so a heterogeneous job (compute mesh + gateway) reports WHICH side
// never showed up — "missing: [gateway]" reads very differently from
// "missing: [4]". A nil name keeps the plain numeric labels.
func RendezvousWithNames(ln net.Listener, n int, name func(rank int) string) error {
	label := func(rank int) string {
		if name != nil {
			if s := name(rank); s != "" {
				return s
			}
		}
		return fmt.Sprint(rank)
	}
	deadline := time.Now().Add(RendezvousTimeout)
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(deadline)
	}
	addrs := make([]string, n)
	conns := make([]net.Conn, n)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		conn, err := ln.Accept()
		if err != nil {
			// A bare timeout is useless for diagnosing a lost child;
			// report exactly which ranks made it and which never showed.
			var got, missing []string
			for r := 0; r < n; r++ {
				if conns[r] != nil {
					got = append(got, label(r))
				} else {
					missing = append(missing, label(r))
				}
			}
			return fmt.Errorf("spmd: rendezvous accept (%d of %d ranks registered; connected: [%s], missing: [%s]): %w",
				i, n, strings.Join(got, " "), strings.Join(missing, " "), err)
		}
		conn.SetDeadline(deadline)
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			conn.Close()
			return fmt.Errorf("spmd: rendezvous registration: %w", err)
		}
		var rank int
		var addr string
		if _, err := fmt.Sscanf(line, "%d %s", &rank, &addr); err != nil {
			conn.Close()
			return fmt.Errorf("spmd: bad registration %q: %w", strings.TrimSpace(line), err)
		}
		if rank < 0 || rank >= n || conns[rank] != nil {
			conn.Close()
			return fmt.Errorf("spmd: bad or duplicate rank %d in registration", rank)
		}
		addrs[rank] = addr
		conns[rank] = conn
	}
	table := strings.Join(addrs, " ")
	for rank, c := range conns {
		if _, err := fmt.Fprintln(c, table); err != nil {
			return fmt.Errorf("spmd: answering rank %d: %w", rank, err)
		}
	}
	return nil
}

// DialRendezvous runs the child side: announce this rank's AM address
// and return the full address table, indexed by rank.
func DialRendezvous(rendezvous string, rank, n int, amAddr string) ([]string, error) {
	conn, err := net.DialTimeout("tcp", rendezvous, RendezvousTimeout)
	if err != nil {
		return nil, fmt.Errorf("spmd: dialing rendezvous %s: %w", rendezvous, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(RendezvousTimeout))
	if _, err := fmt.Fprintf(conn, "%d %s\n", rank, amAddr); err != nil {
		return nil, fmt.Errorf("spmd: registering with rendezvous: %w", err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("spmd: reading address table: %w", err)
	}
	addrs := strings.Fields(line)
	if len(addrs) != n {
		return nil, fmt.Errorf("spmd: address table has %d entries, want %d", len(addrs), n)
	}
	return addrs, nil
}

// HierNodes returns the host index of every rank under a
// procs-per-node packing: rank r lives on host r/ppn. This is the one
// topology function shared by all backends (upcxx-run passes it to the
// in-process backend as Config.Nodes), which is what makes LocalTeam
// membership identical across proc, tcp and hier runs of the same
// shape.
func HierNodes(n, ppn int) []int {
	if ppn < 1 || ppn > n {
		panic(fmt.Sprintf("spmd: procs-per-node %d out of range for %d ranks", ppn, n))
	}
	nodes := make([]int, n)
	for r := range nodes {
		nodes[r] = r / ppn
	}
	return nodes
}

// RunChild is one rank's half of a launched job — what every upcxx-run
// and upcxx-gate child process runs, and RunWireLocal and RunHierLocal
// once per goroutine: listen, register with the rendezvous, attach the
// co-located shm files, build the conduit, connect the mesh with
// everything the endpoint consults fixed (bounded by RendezvousTimeout),
// and run main as rank `rank` of n with a segBytes segment. A setup
// failure closes whatever setup opened.
//
// An empty shmDir selects the flat wire conduit, every rank its own
// host, built survivable when the job asks for it (Config.Wire).
// Otherwise ranks are packed ppn to a host (HierNodes) over the
// two-level conduit, never survivable, each rank's segment a window of
// a file it creates under the job-wide shmDir/node<k>/ before the
// rendezvous — which is what guarantees every co-located file exists
// once the rendezvous answers, so attaching needs no connected mesh.
func RunChild(rendezvous string, rank, n, ppn, segBytes int, shmDir string, cfg core.Config, main func(me *core.Rank)) (core.Stats, error) {
	tep, err := transport.ListenTCP(rank, n, "127.0.0.1:0")
	if err != nil {
		return core.Stats{}, err
	}
	var shm *gasnet.ShmConduit
	fail := func(err error) (core.Stats, error) {
		if shm != nil {
			shm.Close()
		}
		tep.Close()
		return core.Stats{}, err
	}
	var nodes []int
	if shmDir != "" {
		nodes = HierNodes(n, ppn)
		node := nodes[rank]
		dir := filepath.Join(shmDir, fmt.Sprintf("node%d", node))
		if err = os.MkdirAll(dir, 0o777); err == nil {
			shm, err = gasnet.CreateShm(dir, rank-node*ppn, min(ppn, n-node*ppn), gasnet.DefaultShmRingBytes, segBytes)
		}
		if err != nil {
			return fail(err)
		}
	}
	obs.Logf(1, rank, "spmd: listening on %s, dialing rendezvous %s", tep.Addr(), rendezvous)
	addrs, err := DialRendezvous(rendezvous, rank, n, tep.Addr())
	if err != nil {
		return fail(err)
	}
	var seg *segment.Segment
	if shm == nil {
		seg = segment.New(segBytes)
	} else if err := shm.Attach(); err != nil {
		return fail(err)
	} else {
		seg = segment.NewExtern(shm.Seg())
	}
	// The fault injector is shared with the runtime's ChaosArm via the
	// plan's per-rank cache, so time triggers stay dormant until the
	// program arms them.
	wc := cfg.Wire(rank)
	if shm != nil {
		wc.Resilience = nil // the shm plane has no failure detector
	}
	wire := gasnet.NewWireConduit(tep, seg, wc)
	var cd gasnet.Conduit = wire
	if shm != nil {
		cd = gasnet.NewHierConduit(wire, shm, nodes)
	}
	if err := wire.Connect(addrs, time.Now().Add(RendezvousTimeout)); err != nil {
		return fail(err)
	}
	obs.Logf(1, rank, "spmd: mesh connected (%d ranks)", n)
	defer cd.Close()
	st := core.RunWire(cfg, cd, seg, main)
	// Reached only when main completed: a panicking rank skips the
	// goodbye, so its peers see the close as peer loss and abort.
	wire.Goodbye()
	return st, nil
}

// RunWireLocal runs an n-rank wire job inside ONE process, one
// goroutine per rank, sharing no runtime state beyond the sockets: the
// whole wire protocol without subprocess management (upcxx-run gives
// true multi-process isolation).
func RunWireLocal(n, segBytes int, cfg core.Config, main func(me *core.Rank)) ([]core.Stats, error) {
	return runLocal(n, 1, segBytes, "", cfg, main)
}

// RunHierLocal runs an n-rank hierarchical job inside ONE process, one
// goroutine per rank, sharing real mmap'd files in a temp directory —
// the multi-process data path (the OS maps the same pages at n
// addresses) without subprocess management.
func RunHierLocal(n, ppn, segBytes int, cfg core.Config, main func(me *core.Rank)) ([]core.Stats, error) {
	dir, err := os.MkdirTemp("", "upcxx-shm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return runLocal(n, ppn, segBytes, dir, cfg, main)
}

// runLocal is a launch inside one process: a rendezvous on a loopback
// port plus n goroutines, each running exactly what a launched child
// process runs (RunChild).
func runLocal(n, ppn, segBytes int, shmDir string, cfg core.Config, main func(me *core.Rank)) ([]core.Stats, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rdvErr := make(chan error, 1)
	go func() { rdvErr <- Rendezvous(ln, n) }()
	stats := make([]core.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = RunChild(ln.Addr().String(), i, n, ppn, segBytes, shmDir, cfg, main)
		}()
	}
	wg.Wait()
	// A rank that failed before registering leaves the rendezvous
	// waiting; closing the listener ends it, and the rank's own error is
	// the one to report.
	ln.Close()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("spmd: rank %d: %w", i, err)
		}
	}
	if err := <-rdvErr; err != nil {
		return nil, err
	}
	return stats, nil
}
