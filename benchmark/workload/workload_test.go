package workload

import (
	"testing"
	"time"

	"upcxx/benchmark/measure"
)

// The same seed must give the same inputs, a different seed different
// ones, and a worker must stay inside its own stripe of the key space.
func TestKeyStreamIsSeededAndStriped(t *testing.T) {
	draw := func(seed int64, worker int) (idx []int, gets int) {
		ks := newKeyStream(seed, worker, 2, 1<<16)
		for i := 0; i < 2000; i++ {
			k, get, _ := ks.next()
			idx = append(idx, k)
			if get {
				gets++
			}
		}
		return idx, gets
	}
	a, gets := draw(42, 1)
	b, _ := draw(42, 1)
	c, _ := draw(43, 1)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		if a[i]%2 != 1 || a[i] < 0 || a[i] >= 1<<16 {
			t.Fatalf("worker 1 drew key index %d outside its stripe", a[i])
		}
	}
	if !same {
		t.Error("seed 42 gave two different key sequences")
	}
	if !differ {
		t.Error("seeds 42 and 43 gave the same key sequence")
	}
	if gets < 900 || gets > 1100 {
		t.Errorf("%d GETs of 2000 operations, want about half", gets)
	}
	// zipf: the hottest key of the stripe dominates.
	hot := 0
	for _, k := range a {
		if k == 1 {
			hot++
		}
	}
	if hot < 100 {
		t.Errorf("hottest key drawn %d times of 2000; the stream is not skewed", hot)
	}
}

func TestValueGeneratorsAreSeeded(t *testing.T) {
	if stormVal(1, 0, 3, 5) != stormVal(1, 0, 3, 5) || stormVal(1, 0, 3, 5) == stormVal(2, 0, 3, 5) ||
		stormVal(1, 0, 3, 5) == stormVal(1, 1, 3, 5) || stormVal(1, 0, 3, 5) == stormVal(1, 0, 4, 5) {
		t.Error("stormVal does not separate seed, rank and epoch")
	}
	if collVal(1, 9, 2) != collVal(1, 9, 2) || collVal(1, 9, 2) == collVal(1, 9, 3) || collVal(1, 9, 2) == collVal(2, 9, 2) {
		t.Error("collVal does not separate seed and rank")
	}
}

// The quick smoke: the traced run of every workload end to end with a
// 1 s window and a tenth of the set-up. It checks the plumbing (ten
// sub-windows, every end-to-end metric positive, no failed operation,
// spans recorded, and the five traced runs together reporting exactly
// the per-layer metrics BENCHMARK.json lists), never the numbers.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	layer := map[string]Metric{}
	for _, spec := range All {
		t.Run(spec.Name, func(t *testing.T) {
			tr := measure.NewTracer()
			res := spec.Run(Params{Seed: 7, Window: time.Second, Quick: true, Tracer: tr, T0: time.Now()})
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if len(res.Rates) != SubWindows {
				t.Fatalf("%d sub-windows, want %d", len(res.Rates), SubWindows)
			}
			m := res.EndToEnd()
			for _, d := range EndToEndDefs {
				if v, ok := m[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v (reported %v)", d.Name, v, ok)
				}
			}
			if len(tr.Tracks()) == 0 || len(tr.Tracks()[0].Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			got, errs := res.PerLayer(spec.Name, true)
			for _, err := range errs {
				t.Error(err)
			}
			for k, v := range got {
				layer[k] = v
			}
		})
	}
	want := map[string]bool{}
	for _, d := range LayerDefs {
		want[d.Name] = true
		if m, ok := layer[d.Name]; !ok {
			t.Errorf("%s reported by no workload's traced run", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s reported in %q, listed in %q", d.Name, m.Unit, d.Unit)
		}
	}
	for k := range layer {
		if !want[k] {
			t.Errorf("%s reported but not listed in LayerDefs", k)
		}
	}
	for _, name := range []string{"gasnet.wire_put8_us", "gasnet.wire_get32k_us", "transport.loopback_rtt8_us",
		"svc.store_put_us", "core.rpc_rtt_us", "dht.wire_insert_us", "gasnet.hier_barrier_2x2_us"} {
		if layer[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive value", name, layer[name].Value)
		}
	}
}
