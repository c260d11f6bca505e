// Package segment implements the registered-memory substrate of upcxx-go.
//
// Real UPC++ runs over GASNet, which registers one contiguous memory
// segment per process with the NIC so remote ranks can read and write it
// with one-sided RDMA. This package is the analog: every rank owns one
// fixed-size Segment backed by a []byte that never reallocates (so raw
// pointers into it remain stable, just as RDMA registration pins pages),
// plus a first-fit free-list allocator with coalescing that backs
// upcxx.Allocate / shared_array storage.
//
// Element types stored in segments must be pointer-free (no Go pointers,
// maps, slices, strings, channels, interfaces or funcs): the garbage
// collector does not scan segment bytes, exactly as a real PGAS segment is
// opaque to the host language runtime. The core package enforces this with
// a one-time reflective check per allocation type.
package segment

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Align is the alignment of every allocation, sufficient for any
// pointer-free scalar or struct the library stores.
const Align = 16

// ErrOutOfMemory is returned when a segment cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("segment: out of shared memory")

// ErrBadFree is returned when freeing an offset that is not the base of a
// live allocation.
var ErrBadFree = errors.New("segment: free of unallocated offset")

type block struct {
	off  uint64
	size uint64
}

// Segment is one rank's registered shared-memory region. All methods are
// safe for concurrent use: remote ranks access segments directly (the RDMA
// analog), serialized by the segment lock.
type Segment struct {
	mu    sync.Mutex
	buf   []byte
	free  []block           // sorted by offset, coalesced
	live  map[uint64]uint64 // allocation base -> size
	inUse uint64
	peak  uint64
}

// New creates a segment of the given capacity in bytes (rounded up to
// Align).
func New(capacity int) *Segment {
	if capacity < Align {
		capacity = Align
	}
	c := (uint64(capacity) + Align - 1) &^ uint64(Align-1)
	return &Segment{
		buf:  make([]byte, c),
		free: []block{{0, c}},
		live: make(map[uint64]uint64),
	}
}

// NewExtern wraps an externally provided buffer — typically a window of
// an mmap'd shared file, so co-located processes address each other's
// segments with plain loads and stores — as a Segment. The usable
// capacity is len(buf) rounded down to Align; buf must stay mapped for
// the segment's lifetime and must be 8-byte aligned (mmap regions are
// page-aligned).
func NewExtern(buf []byte) *Segment {
	c := uint64(len(buf)) &^ uint64(Align-1)
	if c < Align {
		panic(fmt.Sprintf("segment: NewExtern buffer of %d bytes is smaller than one %d-byte block", len(buf), Align))
	}
	return &Segment{
		buf:  buf[:c:c],
		free: []block{{0, c}},
		live: make(map[uint64]uint64),
	}
}

// Capacity returns the total segment size in bytes.
func (s *Segment) Capacity() uint64 { return uint64(len(s.buf)) }

// InUse returns the number of bytes currently allocated.
func (s *Segment) InUse() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inUse
}

// Peak returns the high-water mark of allocated bytes.
func (s *Segment) Peak() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// Alloc reserves size bytes and returns the segment offset of the
// allocation. First-fit over an offset-sorted, coalesced free list.
func (s *Segment) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		size = Align
	}
	size = (size + Align - 1) &^ uint64(Align-1)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.free {
		b := &s.free[i]
		if b.size < size {
			continue
		}
		off := b.off
		b.off += size
		b.size -= size
		if b.size == 0 {
			s.free = append(s.free[:i], s.free[i+1:]...)
		}
		s.live[off] = size
		s.inUse += size
		if s.inUse > s.peak {
			s.peak = s.inUse
		}
		return off, nil
	}
	return 0, fmt.Errorf("%w: need %d, %d of %d free", ErrOutOfMemory, size, uint64(len(s.buf))-s.inUse, len(s.buf))
}

// Free releases an allocation previously returned by Alloc, coalescing
// with adjacent free blocks.
func (s *Segment) Free(off uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.live[off]
	if !ok {
		return fmt.Errorf("%w: offset %d", ErrBadFree, off)
	}
	delete(s.live, off)
	s.inUse -= size

	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].off >= off })
	s.free = append(s.free, block{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = block{off, size}

	// Coalesce with successor, then predecessor.
	if i+1 < len(s.free) && s.free[i].off+s.free[i].size == s.free[i+1].off {
		s.free[i].size += s.free[i+1].size
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	if i > 0 && s.free[i-1].off+s.free[i-1].size == s.free[i].off {
		s.free[i-1].size += s.free[i].size
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
	return nil
}

// FreeBlocks returns the number of blocks on the free list (for tests of
// coalescing behaviour).
func (s *Segment) FreeBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// Read copies len(p) bytes starting at off into p under the segment lock.
// This is the remote-get data path.
func (s *Segment) Read(off uint64, p []byte) {
	s.mu.Lock()
	copy(p, s.buf[off:])
	s.mu.Unlock()
}

// Write copies p into the segment at off under the segment lock. This is
// the remote-put data path.
func (s *Segment) Write(off uint64, p []byte) {
	s.mu.Lock()
	copy(s.buf[off:], p)
	s.mu.Unlock()
}

// Xor64 atomically xors val into the 8 bytes at off and returns the new
// value. This is the one fixed-function remote atomic the wire protocol
// carries (HPCC Random Access's update op); richer read-modify-writes
// remain closure-based and in-process-only. A CAS loop rather than the
// segment lock: on shared-memory (NewExtern) segments the peer process
// updating the same word holds a different Segment object, so the only
// mutual exclusion both sides share is the memory word itself. Align
// guarantees allocation bases are 8-byte aligned; callers must keep
// uint64 fields aligned within their structs (Go's layout does).
func (s *Segment) Xor64(off, val uint64) uint64 {
	if off >= uint64(len(s.buf)) || uint64(len(s.buf))-off < 8 {
		panic(fmt.Sprintf("segment: Xor64 at offset %d overruns %d-byte segment", off, len(s.buf)))
	}
	p := (*uint64)(unsafe.Pointer(&s.buf[off]))
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old^val) {
			return old ^ val
		}
	}
}

// Lock acquires the segment lock for a multi-word read-modify-write (the
// network-atomic analog). The caller must call Unlock.
func (s *Segment) Lock() { s.mu.Lock() }

// Unlock releases the segment lock.
func (s *Segment) Unlock() { s.mu.Unlock() }

// Base returns the address of the first segment byte. Offsets returned by
// Alloc are stable relative to Base for the segment's lifetime.
func (s *Segment) Base() unsafe.Pointer { return unsafe.Pointer(&s.buf[0]) }

// Bytes returns the n bytes at off without locking; callers on the owning
// rank use it for local access, remote callers must hold Lock.
func (s *Segment) Bytes(off, n uint64) []byte { return s.buf[off : off+n : off+n] }

// Window is Bytes for an offset and length that arrived off the network:
// nil unless [off, off+n) lies inside the segment. It is the view a wire
// get replies from and a long put lands in.
func (s *Segment) Window(off, n uint64) []byte {
	if off > uint64(len(s.buf)) || n > uint64(len(s.buf))-off {
		return nil
	}
	return s.buf[off : off+n : off+n]
}

// At returns a typed pointer to the segment bytes at off. The caller is
// responsible for ensuring off was allocated with space for T and that T
// is pointer-free.
func At[T any](s *Segment, off uint64) *T {
	return (*T)(unsafe.Pointer(&s.buf[off]))
}

// Slice returns a []T view of n elements starting at off. Same caveats as
// At.
func Slice[T any](s *Segment, off uint64, n int) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(&s.buf[off])), n)
}
