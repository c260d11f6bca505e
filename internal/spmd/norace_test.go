//go:build !race

package spmd

const raceEnabled = false
