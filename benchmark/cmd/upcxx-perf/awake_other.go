//go:build !linux

package main

// Keeping the CPUs awake needs SCHED_IDLE (awake_linux.go); elsewhere a
// run goes on without.
func keepAwake() (stop func()) { return func() {} }

func spinMain(int) int { return 3 }
