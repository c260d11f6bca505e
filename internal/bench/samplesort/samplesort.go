// Package samplesort implements the paper's §V-C benchmark (Fig 6): sort
// a distributed array of 64-bit integer keys with the sample sort
// algorithm of Frazer & McKellar. Keys come from the Mersenne Twister;
// splitter candidates are sampled with fine-grained global reads from the
// shared key array; redistribution uses non-blocking one-sided puts
// (async_copy) at offsets computed from an exchanged count matrix; each
// rank finishes with a local quicksort.
//
// The "upc" flavor runs the same algorithm under the Berkeley UPC
// profile; the paper reports the two curves as nearly identical, with the
// benchmark communication-bound at scale.
package samplesort

import (
	"sort"

	"upcxx/internal/core"
	"upcxx/internal/mt"
	"upcxx/internal/sim"
	"upcxx/internal/upc"
)

// Params configures a run.
type Params struct {
	Ranks       int
	KeysPerRank int
	Oversample  int    // splitter candidates per rank (paper-style oversampling)
	Flavor      string // "upc" or "upcxx"
	Machine     sim.Machine
	Virtual     bool
}

// Result reports the metrics of Fig 6.
type Result struct {
	Ranks    int
	Keys     int64
	Seconds  float64
	TBPerMin float64 // terabytes sorted per minute, the paper's y-axis
	Sorted   bool    // global order verified
	Balance  float64 // max rank load / mean load after redistribution
}

// Counters reports the run's metrics as named counters for the benchmark
// harness; "sorted" is 1 when global order verified.
func (r Result) Counters() map[string]float64 {
	sorted := 0.0
	if r.Sorted {
		sorted = 1
	}
	keysPerSec := 0.0
	if r.Seconds > 0 {
		keysPerSec = float64(r.Keys) / r.Seconds
	}
	return map[string]float64{
		"keys_sorted":  float64(r.Keys),
		"keys_per_sec": keysPerSec,
		"tb_per_min":   r.TBPerMin,
		"sorted":       sorted,
		"balance":      r.Balance,
	}
}

// Run executes the benchmark.
func Run(p Params) Result {
	if p.Oversample <= 0 {
		p.Oversample = 32
	}
	cfg := core.Config{Ranks: p.Ranks, Machine: p.Machine, SW: sim.SWUPCXX}
	if p.Flavor == "upc" {
		cfg = upc.Config(p.Ranks, p.Machine)
	}
	// Segment: keys + receive buffer (sized with slack for imbalance).
	cfg.SegmentBytes = p.KeysPerRank*8*4 + (1 << 17)

	totalKeys := int64(p.KeysPerRank) * int64(p.Ranks)
	var sorted bool
	var balance float64

	st := core.Run(cfg, func(me *core.Rank) {
		P := me.Ranks()
		n := p.KeysPerRank

		// Distributed key array, block layout: rank r owns
		// [r*n, (r+1)*n). Generated locally with mt19937-64.
		keys := core.NewSharedArray[uint64](me, P*n, n)
		local := keys.LocalSlice(me)
		rng := mt.New(uint64(0x5eed + me.ID()))
		for i := range local {
			local[i] = rng.Uint64()
		}
		me.Barrier()

		// Phase 1 — sampling (paper listing): the key space is sampled
		// with fine-grained global reads ("candidates[i] = keys[s];
		// global accesses"). Each rank samples its share in parallel;
		// the candidates are gathered, sorted once, and the splitters
		// broadcast.
		myCand := make([]uint64, p.Oversample)
		srng := mt.New(uint64(0xabcde0) + uint64(me.ID()))
		for i := range myCand {
			s := srng.Uint64n(uint64(P * n))
			myCand[i] = keys.Get(me, int(s)) // global accesses
		}
		allCand := core.TeamAllGather(me.World(), myCand)
		me.Barrier()
		var splitters []uint64
		if me.ID() == 0 {
			cand := make([]uint64, 0, p.Oversample*P)
			for _, c := range allCand {
				cand = append(cand, c...)
			}
			sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
			me.Work(float64(len(cand)) * 20) // sort cost
			splitters = make([]uint64, P-1)
			for i := 1; i < P; i++ {
				splitters[i-1] = cand[i*p.Oversample]
			}
		}
		splitters = core.TeamBroadcast(me.World(), splitters, 0)
		me.Barrier()

		// Phase 2 — partition local keys by splitter.
		quicksort(local)
		me.Work(float64(n) * 22) // n log n local sort cost
		bounds := make([]int, P+1)
		bounds[P] = n
		for d := 1; d < P; d++ {
			bounds[d] = sort.Search(n, func(i int) bool { return local[i] >= splitters[d-1] })
		}

		// Phase 3 — exchange counts and compute landing offsets the way
		// alltoallv implementations do: each destination scans its own
		// column of the count matrix (O(P) per rank), then a transpose
		// exchange hands each sender its per-destination offsets.
		myCounts := make([]int32, P)
		for d := 0; d < P; d++ {
			myCounts[d] = int32(bounds[d+1] - bounds[d])
		}
		allCounts := core.TeamAllGather(me.World(), myCounts) // [src][dst]
		me.Barrier()

		recvTotal := 0
		colOffs := make([]int32, P) // offset of each source within my buffer
		for r := 0; r < P; r++ {
			colOffs[r] = int32(recvTotal)
			recvTotal += int(allCounts[r][me.ID()])
		}
		me.Work(float64(P))
		allOffs := core.TeamAllGather(me.World(), colOffs) // [dst][src]
		recvBuf := core.Allocate[uint64](me, me.ID(), recvTotal+1)
		bufs := core.TeamAllGather(me.World(), recvBuf)
		me.Barrier()

		// Phase 4 — redistribution with non-blocking one-sided puts at
		// the exchanged offsets, then a single fence (paper:
		// "non-blocking one-sided communication to redistribute the
		// keys" synchronized by one async_copy_fence, §V-E).
		for d := 0; d < P; d++ {
			if myCounts[d] == 0 {
				continue
			}
			off := int(allOffs[d][me.ID()])
			chunk := local[bounds[d]:bounds[d+1]]
			core.WriteSliceAsync(me, bufs[d].Add(off), chunk, nil)
		}
		core.AsyncCopyFence(me)
		me.Barrier()

		// Phase 5 — final local sort of received keys.
		mine := core.LocalSlice(me, recvBuf, recvTotal)
		quicksort(mine)
		me.Work(float64(recvTotal) * 22)
		me.Barrier()

		// Verification: local sortedness plus global boundary order and
		// conservation of key count.
		ok := isSorted(mine)
		var hi uint64
		if recvTotal > 0 {
			hi = mine[recvTotal-1]
		}
		his := core.TeamAllGather(me.World(), hi)
		lo := uint64(0)
		if recvTotal > 0 {
			lo = mine[0]
		}
		los := core.TeamAllGather(me.World(), lo)
		counts := core.TeamAllGather(me.World(), int64(recvTotal))
		me.Barrier()
		if me.ID() == 0 {
			var sum int64
			for _, c := range counts {
				sum += c
			}
			globalOK := sum == int64(P*n)
			for r := 0; r+1 < P; r++ {
				if counts[r] > 0 && counts[r+1] > 0 && his[r] > los[r+1] {
					globalOK = false
				}
			}
			sorted = ok && globalOK
			maxC := int64(0)
			for _, c := range counts {
				if c > maxC {
					maxC = c
				}
			}
			balance = float64(maxC) * float64(P) / float64(sum)
		}
		me.Barrier()
	})

	secs := st.Seconds(p.Virtual)
	res := Result{Ranks: p.Ranks, Keys: totalKeys, Seconds: secs, Sorted: sorted, Balance: balance}
	if secs > 0 {
		bytes := float64(totalKeys) * 8
		res.TBPerMin = bytes / 1e12 / (secs / 60)
	}
	return res
}

func isSorted(s []uint64) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// quicksort is the benchmark's own local sort (the paper's "local quick
// sort"): median-of-three quicksort with insertion sort below a cutoff.
func quicksort(s []uint64) {
	for len(s) > 12 {
		// Median of three.
		m := len(s) / 2
		hi := len(s) - 1
		if s[0] > s[m] {
			s[0], s[m] = s[m], s[0]
		}
		if s[0] > s[hi] {
			s[0], s[hi] = s[hi], s[0]
		}
		if s[m] > s[hi] {
			s[m], s[hi] = s[hi], s[m]
		}
		pivot := s[m]
		i, j := 0, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(s)-i {
			quicksort(s[:j+1])
			s = s[i:]
		} else {
			quicksort(s[i:])
			s = s[:j+1]
		}
	}
	// Insertion sort tail.
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
