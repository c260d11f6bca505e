package sim

import (
	"math"
	"sync/atomic"
)

// Clock is a per-rank virtual clock measured in nanoseconds since job
// start. It is owned by one rank goroutine; the atomic bit pattern lets
// other ranks (and the barrier reducer) read it without a data race.
//
// Clocks are monotone: AdvanceTo never moves a clock backwards, which is
// what makes the conservative max-merge at synchronization points sound
// (DESIGN.md §4, "Virtual-time semantics").
type Clock struct {
	bits atomic.Uint64 // float64 bit pattern
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() float64 { return f64(c.bits.Load()) }

// Advance adds d nanoseconds and returns the new time. A charge of zero
// (every charge under NoCost) or a negative one leaves the clock alone:
// no store, so a job whose time base is the wall clock pays nothing
// for being modeled.
func (c *Clock) Advance(d float64) float64 {
	t := f64(c.bits.Load())
	if d > 0 {
		t += d
		c.bits.Store(u64(t))
	}
	return t
}

// AdvanceTo moves the clock forward to t if t is later than now, and
// returns the (possibly unchanged) current time.
func (c *Clock) AdvanceTo(t float64) float64 {
	now := f64(c.bits.Load())
	if t > now {
		c.bits.Store(u64(t))
		return t
	}
	return now
}

func u64(f float64) uint64 { return math.Float64bits(f) }
func f64(u uint64) float64 { return math.Float64frombits(u) }
