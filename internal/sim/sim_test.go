package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNodesAndPlacement(t *testing.T) {
	m := Edison
	cases := []struct{ ranks, nodes int }{
		{1, 1}, {24, 1}, {25, 2}, {48, 2}, {6144, 256},
	}
	for _, c := range cases {
		if got := m.Nodes(c.ranks); got != c.nodes {
			t.Errorf("Nodes(%d) = %d, want %d", c.ranks, got, c.nodes)
		}
	}
	if m.Node(0) != 0 || m.Node(23) != 0 || m.Node(24) != 1 {
		t.Errorf("block placement wrong: %d %d %d", m.Node(0), m.Node(23), m.Node(24))
	}
}

func TestHopsMonotone(t *testing.T) {
	for _, m := range []Machine{Edison, Vesta, Local} {
		prev := -1.0
		for nodes := 1; nodes <= 4096; nodes *= 2 {
			h := m.Hops(nodes)
			if h < prev {
				t.Errorf("%s: Hops(%d)=%v < Hops(previous)=%v", m.Name, nodes, h, prev)
			}
			prev = h
		}
	}
}

func TestTorusGrowsFasterThanDragonfly(t *testing.T) {
	// BG/Q torus diameter should grow faster with machine size than the
	// Dragonfly: this drives the Fig 4 latency growth.
	dfly := Edison.Hops(2048) / Edison.Hops(8)
	torus := Vesta.Hops(2048) / Vesta.Hops(8)
	if torus <= dfly {
		t.Errorf("torus growth %v should exceed dragonfly growth %v", torus, dfly)
	}
}

// TestOperations holds every operation of the model to its formula
// (DESIGN.md §4), with the expected values worked out by hand. A job of
// 48 ranks on Edison spans two nodes (ranks 0-23 and 24-47): the
// inter-node one-way latency is 1300 + 100*(1.5 + 0.25*log2 2) = 1475
// ns, the intra-node one 450 ns, and 270 bytes take 270/2.7 = 100 ns on
// the wire. SWUPCXX: get/put 750, AM 900, task 500, shared access 450,
// 150 per barrier stage; SWMPI adds 250 of two-sided matching over
// get/put 700.
func TestOperations(t *testing.T) {
	mo := NewModel(Edison, SWUPCXX, 48)
	mpi := NewModel(Edison, SWMPI, 48)
	one := NewModel(Edison, SWUPCXX, 1)
	amCost, amArrival := mo.AMSend(1000, 0, 24, 270)
	amCostIntra, amArrivalIntra := mo.AMSend(1000, 0, 1, 0)
	cases := []struct {
		name      string
		got, want float64
	}{
		{"GetCost inter-node", mo.GetCost(0, 24, 270), 750 + 2*1475 + 100},
		{"GetCost intra-node", mo.GetCost(0, 1, 270), 750 + 2*450 + 100},
		{"GetCost local copy", mo.GetCost(0, 0, 86), 86 / (2 * 4.3)},
		{"PutCost inter-node", mo.PutCost(0, 24, 270), 750 + 2*1475 + 100},
		{"PutCost empty intra-node", mo.PutCost(0, 1, 0), 750 + 2*450},
		{"CopyCost get", mo.CopyCost(0, 24, 0, 270), 3800},
		{"CopyCost put", mo.CopyCost(0, 0, 24, 270), 3800},
		{"CopyCost third party", mo.CopyCost(0, 24, 1, 270), 3800 + 1750},
		{"CopyCost local", mo.CopyCost(0, 0, 0, 86), 10},
		{"NBInitCost", mo.NBInitCost(), 750 + 60},
		{"NBDone remote", mo.NBDone(1000, 0, 24, 270), 1000 + 1475 + 100},
		{"NBDone local", mo.NBDone(1000, 0, 0, 86), 1010},
		{"SharedAccessCost", mo.SharedAccessCost(), 450},
		{"AMSend cost", amCost, 900 + 60 + 100},
		{"AMSend arrival", amArrival, 1000 + 900 + 1475 + 100},
		{"AMSend cost, empty", amCostIntra, 900 + 60},
		{"AMSend arrival, intra-node", amArrivalIntra, 1000 + 900 + 450},
		{"Arrival inter-node", mo.Arrival(1000, 0, 24, 270), 1000 + 1475 + 100},
		{"Arrival notify intra-node", mo.Arrival(1000, 0, 1, 0), 1000 + 450},
		{"Arrival to self", mo.Arrival(1000, 3, 3, 0), 1000},
		{"TaskDispatchCost", mo.TaskDispatchCost(), 500},
		{"BarrierRelease 48 ranks", mo.BarrierRelease(1000), 1000 + 6*(1475+150)},
		{"BarrierRelease 1 rank", one.BarrierRelease(1000), 1000 + 150},
		{"TeamBarrierCost 4", mo.TeamBarrierCost(4), 2 * (1475 + 150)},
		{"TeamBarrierCost 1", mo.TeamBarrierCost(1), 0},
		{"BroadcastCost 4", mo.BroadcastCost(4, 270), 2 * (1475 + 150 + 100)},
		{"AllGatherCost 4", mo.AllGatherCost(4, 270), 2*(1475+150+100) + 3*100},
		{"AllReduceCost 4", mo.AllReduceCost(4, 270), 2 * 2 * (1475 + 150 + 100)},
		{"ReduceSlicesCost 8", mo.ReduceSlicesCost(8, 270), 3*(1475+150) + 2*100},
		{"BroadcastCost single node", one.BroadcastCost(4, 270), 2 * (450 + 150 + 100)},
		{"FlopsCost", mo.FlopsCost(19200, 1), 1000},
		{"FlopsCost 4 ways", mo.FlopsCost(19200, 4), 250},
		{"FlopsCost 0 ways", mo.FlopsCost(19200, 0), 1000},
		{"MemCost", mo.MemCost(4300), 1000},
		{"TwoSidedMatchCost", mpi.TwoSidedMatchCost(), 250},
		{"EagerThreshold", float64(mpi.EagerThreshold()), 8192},
		{"EagerSendDone", mpi.EagerSendDone(1000), 1000 + 700 + 60},
		{"RecvDone rendezvous", mpi.RecvDone(1000, 24, 0, 270, true, false), 1000 + 2*1475 + 100 + 250},
		{"RecvDone parked eager", mpi.RecvDone(1000, 24, 0, 86, false, true), 1000 + 250 + 20},
		{"RecvDone posted eager", mpi.RecvDone(1000, 24, 0, 86, false, false), 1000 + 250},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestLatIntraVsInter(t *testing.T) {
	mo := NewModel(Edison, SWUPCXX, 48)
	if l := mo.lat(0, 0); l != 0 {
		t.Errorf("self latency = %v, want 0", l)
	}
	intra := mo.lat(0, 1)  // same node
	inter := mo.lat(0, 24) // different node
	if intra != Edison.IntraNodeNs {
		t.Errorf("intra-node latency = %v, want %v", intra, Edison.IntraNodeNs)
	}
	if inter <= intra {
		t.Errorf("inter-node latency %v should exceed intra-node %v", inter, intra)
	}
}

func TestFlopsAndMemCost(t *testing.T) {
	mo := NewModel(Edison, SWUPCXX, 24)
	// 19.2 flops/ns peak: 19200 flops take 1000 ns.
	if got := mo.FlopsCost(19200, 1); math.Abs(got-1000) > 1e-9 {
		t.Errorf("FlopsCost = %v, want 1000", got)
	}
	if mo.MemCost(4.3*1000) != 1000 {
		t.Errorf("MemCost wrong: %v", mo.MemCost(4.3*1000))
	}
}

// TestNoCostCharges holds the wall-clock jobs' model to charging
// nothing: every cost is zero and every arrival is its send time.
func TestNoCostCharges(t *testing.T) {
	mo := NoCost(64)
	amCost, amArrival := mo.AMSend(7, 0, 63, 1<<20)
	for name, got := range map[string]float64{
		"GetCost":          mo.GetCost(0, 63, 1<<20),
		"PutCost":          mo.PutCost(0, 63, 1<<20),
		"CopyCost":         mo.CopyCost(0, 1, 63, 1<<20),
		"NBInitCost":       mo.NBInitCost(),
		"SharedAccessCost": mo.SharedAccessCost(),
		"AMSend cost":      amCost,
		"TaskDispatchCost": mo.TaskDispatchCost(),
		"TeamBarrierCost":  mo.TeamBarrierCost(64),
		"BroadcastCost":    mo.BroadcastCost(64, 1<<20),
		"AllGatherCost":    mo.AllGatherCost(64, 1<<20),
		"AllReduceCost":    mo.AllReduceCost(64, 1<<20),
		"ReduceSlicesCost": mo.ReduceSlicesCost(64, 1<<20),
		"FlopsCost":        mo.FlopsCost(1e9, 1),
		"MemCost":          mo.MemCost(1e9),
	} {
		if got != 0 {
			t.Errorf("NoCost %s = %v, want 0", name, got)
		}
	}
	for name, got := range map[string]float64{
		"AMSend arrival": amArrival,
		"NBDone":         mo.NBDone(7, 0, 63, 1<<20),
		"Arrival":        mo.Arrival(7, 0, 63, 1<<20),
		"BarrierRelease": mo.BarrierRelease(7),
		"EagerSendDone":  mo.EagerSendDone(7),
		"RecvDone":       mo.RecvDone(7, 63, 0, 1<<20, true, true),
	} {
		if got != 7 {
			t.Errorf("NoCost %s = %v, want the send time 7", name, got)
		}
	}
}

func TestGetPutCostsScaleWithSize(t *testing.T) {
	mo := NewModel(Edison, SWUPCXX, 1024)
	small := mo.GetCost(0, 100, 8)
	big := mo.GetCost(0, 100, 1<<20)
	if big <= small {
		t.Errorf("1MiB get (%v) should cost more than 8B get (%v)", big, small)
	}
	// Large transfers should be bandwidth-dominated: within 2x of pure wire time.
	wire := (1 << 20) / Edison.BytesPerNs
	if big > 2*wire {
		t.Errorf("1MiB get %v ns should be bandwidth-bound (wire %v ns)", big, wire)
	}
}

func TestUPCfasterThanUPCXXForSharedAccess(t *testing.T) {
	// The Fig 4 / Table IV driver: compiled UPC shared-array access
	// translation is cheaper than the UPC++ run-time proxy.
	if SWUPC.SharedAccessNs >= SWUPCXX.SharedAccessNs {
		t.Fatal("UPC shared access must be cheaper than UPC++")
	}
	// But the absolute gap must shrink relative to total cost at scale:
	moSmall := NewModel(Vesta, SWUPCXX, 16)
	moLarge := NewModel(Vesta, SWUPCXX, 8192)
	upd := func(mo *Model, sw SW) float64 {
		return 2*sw.SharedAccessNs + mo.GetCost(0, mo.Ranks-1, 8) + mo.PutCost(0, mo.Ranks-1, 8)
	}
	gapSmall := upd(moSmall, SWUPCXX) / upd(moSmall, SWUPC)
	gapLarge := upd(moLarge, SWUPCXX) / upd(moLarge, SWUPC)
	if gapLarge >= gapSmall {
		t.Errorf("relative UPC++/UPC gap should shrink with scale: small=%v large=%v", gapSmall, gapLarge)
	}
}

func TestBarrierCostLogarithmic(t *testing.T) {
	c16 := NewModel(Edison, SWUPCXX, 16).BarrierRelease(0)
	c1k := NewModel(Edison, SWUPCXX, 1024).BarrierRelease(0)
	c32k := NewModel(Edison, SWUPCXX, 32768).BarrierRelease(0)
	if !(c16 < c1k && c1k < c32k) {
		t.Fatalf("barrier cost should grow with P: %v %v %v", c16, c1k, c32k)
	}
	// log2(32768)/log2(1024) = 1.5: growth must be sub-linear.
	if c32k/c1k > 3 {
		t.Errorf("barrier growth should be logarithmic: %v vs %v", c32k, c1k)
	}
}

func TestClockMonotone(t *testing.T) {
	var c Clock
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("Now = %v, want 100", c.Now())
	}
	c.AdvanceTo(50) // must not go backwards
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo moved clock backwards to %v", c.Now())
	}
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Fatalf("AdvanceTo = %v, want 250", c.Now())
	}
	c.Advance(-10) // negative ignored
	if c.Now() != 250 {
		t.Fatalf("negative Advance changed clock: %v", c.Now())
	}
}

func TestClockPropertyMonotone(t *testing.T) {
	f := func(steps []float64) bool {
		var c Clock
		prev := 0.0
		for _, s := range steps {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			c.Advance(s)
			now := c.Now()
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11, 32768: 15}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestByName(t *testing.T) {
	if MachineByName("edison").Name != "edison" || MachineByName("vesta").Name != "vesta" ||
		MachineByName("nope").Name != "local" {
		t.Error("MachineByName lookup broken")
	}
	if SWByName("upc").Name != "upc" || SWByName("mpi").Name != "mpi" ||
		SWByName("titanium").Name != "titanium" || SWByName("").Name != "upcxx" {
		t.Error("SWByName lookup broken")
	}
}
