// Package measure is the benchmark's own measurement code: percentile
// selection, sub-window throughput, spans with self time, and process
// resource readings. It knows nothing about the program under test, so
// its rules can be unit-tested on synthetic samples.
package measure

import (
	"slices"
	"syscall"
	"time"
)

// MinBeyond is how many samples must lie beyond a percentile before it
// is reported: a p999 read off 2,000 samples is the second-worst
// sample, not a percentile.
const MinBeyond = 10

// Quantile returns the nearest-rank q-quantile of ascending samples
// (0 for none).
func Quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// Tail returns the q-quantile of ascending samples and whether at
// least MinBeyond samples lie strictly above its rank. Callers report
// a tail only when ok.
func Tail(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	i := int(q * float64(n))
	return Quantile(sorted, q), n > 0 && n-1-i >= MinBeyond
}

// SortedCopy merges sample sets into one ascending slice.
func SortedCopy(sets ...[]int64) []int64 {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	out := make([]int64, 0, n)
	for _, s := range sets {
		out = append(out, s...)
	}
	slices.Sort(out)
	return out
}

// Median returns the median of vals (mean of the middle pair for an
// even count; 0 for none). vals is not modified.
func Median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vals))
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of vals exactly as
// Python's statistics.quantiles(vals, n=4) does (the exclusive
// method), so the spread -aa prints is the spread the driver computes.
// It needs at least two values.
func Quartiles(vals []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(vals))
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// CPUTime returns the process's user+system CPU time so far.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// PeakRSSMB returns the process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func PeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
