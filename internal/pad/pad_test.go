package pad

import (
	"sort"
	"testing"
	"unsafe"
)

// TestSliceKeepsItsDistance: however the allocator packs a burst of
// padded slices, no two of their element ranges come within LineBytes
// of each other, and each is exactly as long as asked.
func TestSliceKeepsItsDistance(t *testing.T) {
	type elem struct{ a, b, c uint64 } // 24 bytes: does not divide LineBytes
	const n, each = 2000, 3
	keep := make([][]elem, n)
	starts := make([]uintptr, n)
	for i := range keep {
		keep[i] = Slice[elem](each)
		if len(keep[i]) != each || cap(keep[i]) != each {
			t.Fatalf("Slice(%d) has len %d cap %d", each, len(keep[i]), cap(keep[i]))
		}
		starts[i] = uintptr(unsafe.Pointer(&keep[i][0]))
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i := 1; i < n; i++ {
		if gap := starts[i] - (starts[i-1] + each*unsafe.Sizeof(elem{})); gap < LineBytes {
			t.Fatalf("two slices %d bytes apart, want >= %d", gap, LineBytes)
		}
	}
}
