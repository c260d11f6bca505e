// Package pad is the one place the runtime declares cache-line padding.
//
// In the paper a rank is an OS process and its task queue, counters and
// finish state are private by construction. Here the ranks of every
// in-process, RunWireLocal and RunHierLocal job are goroutines of one
// heap, and whatever the allocator packs next to a word a rank writes
// per operation shares its cache line — with a word another core writes
// per operation, each write then costs a cross-core line transfer
// (false sharing). The rule (DESIGN.md, "Rank-private state and cache
// lines"): state one goroutine writes per operation is bracketed by a
// Line on each side, so no other goroutine's words can come within
// LineBytes of it whatever the allocator does.
package pad

import "unsafe"

// LineBytes is the isolation distance: two 64-byte lines, because the
// adjacent-line prefetcher of x86 parts moves lines in aligned pairs.
const LineBytes = 128

// Line is LineBytes of dead space. A struct places one before and one
// after the group of fields its owning goroutine writes per operation:
//
//	_ pad.Line
//	hot fields ...
//	_ pad.Line
//
// Everything outside the bracket — other fields of the struct, the
// neighbouring heap objects — is then more than LineBytes away from
// every hot word, on either side, at any alignment.
type Line [LineBytes]byte

// Slice returns n zeroed elements whose backing array keeps at least
// LineBytes of dead elements before and after them: the slice form of
// the Line bracket, for per-operation state that lives in an array
// (free lists, per-destination headers). Appending past n reallocates
// and loses the bracket; callers size n for their steady state.
func Slice[T any](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	guard := (LineBytes + size - 1) / size
	s := make([]T, guard+n+guard)
	return s[guard : guard+n : guard+n]
}
