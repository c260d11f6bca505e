//go:build race

package spmd

// raceEnabled relaxes the wall-clock overlap assertion: race
// instrumentation inflates per-op CPU cost until it dominates the
// round-trip latency the futures mode wins back.
const raceEnabled = true
