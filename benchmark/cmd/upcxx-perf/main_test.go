package main

import (
	"bytes"
	"os"
	"strconv"
	"testing"
)

// The test binary stands in for upcxx-perf when keepAwake re-executes
// it as a spin child.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-spin" {
		cpu, _ := strconv.Atoi(os.Args[2])
		os.Exit(spinMain(cpu))
	}
	os.Exit(m.Run())
}

// keepAwake must come back with its children spinning and stop must not
// return before each has ended (the driver counts leftover processes).
func TestKeepAwakeStartsAndStops(t *testing.T) {
	stop := keepAwake()
	stop()
}

// BENCHMARK.json at the root of the repository is generated from the
// tables the code runs on (upcxx-perf -contract); the two must not drift.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	committed, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `upcxx-perf -contract`; regenerate it")
	}
}
