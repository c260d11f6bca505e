// Package rpc is the serializable task layer under the runtime's
// asynchronous remote function invocation: a registry mapping function
// names to dense wire indices, and the fixed-layout encodings of the
// request / reply / done-ack messages that travel on the conduit's
// aggregation plane. This is what lets the paper's §III-G vocabulary —
// async, futures, finish — cross address spaces without a compiler:
// instead of shipping a Go closure (which does not serialize), callers
// register a named function once per process and ship its index plus
// POD-encoded arguments, exactly as real UPC++ ships a function pointer
// and a trivially-copyable argument tuple over GASNet.
//
// The package is deliberately transport- and runtime-free: the registry
// is generic over the handle type H (internal/core instantiates it with
// *core.Rank), and the codecs are pure functions over byte slices, so
// both halves are testable without a job. internal/core glues them to
// the conduit (see core.RegisterTask / AsyncTask / AsyncTaskFuture).
//
// Registration discipline is SPMD, like a GASNet handler table: every
// process of a job must register the same names in the same order
// before the job starts (package init time is the natural place), so
// that an index minted on one rank resolves to the same function on
// every other. Registering after tasks have started crossing the wire
// is a race; duplicate names panic.
package rpc

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Fn is a registered task body, generic over the runtime handle type:
// it runs on the target rank's goroutine with the target's handle, the
// calling rank, and the POD-encoded arguments (valid only for the
// duration of the call — copy to keep). The returned bytes travel back
// to the caller when a reply was requested (a future or a signal
// event); bodies invoked without one may return nil.
type Fn[H any] func(h H, from int, args []byte) []byte

// Task is the portable handle of a registered function: the value
// Register returns, safe to store in package variables and cheap to
// copy. Only its wire index crosses address spaces; the name stays
// local, for diagnostics. The zero Task is invalid and is rejected by
// every launch path.
type Task struct {
	idx1 uint16 // wire index + 1; 0 means invalid
	name string
}

// Valid reports whether t came from a Register call.
func (t Task) Valid() bool { return t.idx1 != 0 }

// Index returns the task's wire index.
func (t Task) Index() uint16 {
	if t.idx1 == 0 {
		panic("rpc: use of zero Task (not returned by Register)")
	}
	return t.idx1 - 1
}

// Name returns the registration name (empty for the zero Task).
func (t Task) Name() string { return t.name }

func (t Task) String() string {
	if !t.Valid() {
		return "task<invalid>"
	}
	return fmt.Sprintf("task %q (#%d)", t.name, t.Index())
}

// Registry maps registered functions to dense wire indices, in
// registration order. It is safe for concurrent use: registration
// normally completes before the job starts, but in-process jobs share
// one registry across all rank goroutines. Every executing rank
// resolves an index per task, so readers take no lock: they load an
// immutable snapshot that Register replaces copy-on-write.
type Registry[H any] struct {
	mu    sync.Mutex        // serializes Register
	names map[string]uint16 // name -> index; guarded by mu
	snap  atomic.Pointer[regSnap[H]]
}

// regSnap is one published state of the registry. Register appends to
// the slices of the previous snapshot: elements below a published
// length are never written again, so older snapshots stay valid.
type regSnap[H any] struct {
	fns  []Fn[H]
	tags []string
}

// NewRegistry returns an empty registry.
func NewRegistry[H any]() *Registry[H] {
	r := &Registry[H]{names: make(map[string]uint16)}
	r.snap.Store(&regSnap[H]{})
	return r
}

// Register adds fn under name and returns its portable handle. Names
// must be unique and non-empty; registering twice panics (two bodies
// under one index would silently diverge across ranks). The index is
// the registration ordinal, so the SPMD discipline in the package
// comment is what keeps indices meaningful across address spaces.
func (r *Registry[H]) Register(name string, fn Fn[H]) Task {
	if name == "" {
		panic("rpc: Register with empty task name")
	}
	if fn == nil {
		panic(fmt.Sprintf("rpc: Register(%q) with nil function", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("rpc: task %q registered twice", name))
	}
	old := r.snap.Load()
	if len(old.fns) >= 1<<16 {
		panic("rpc: task registry full (65536 tasks)")
	}
	idx := uint16(len(old.fns))
	r.names[name] = idx
	r.snap.Store(&regSnap[H]{fns: append(old.fns, fn), tags: append(old.tags, name)})
	return Task{idx1: idx + 1, name: name}
}

// Resolve returns the function and name registered at the given wire
// index, or an error naming the index and the registry size — the
// diagnostic a rank produces when its peer's registration sequence
// diverged from its own.
func (r *Registry[H]) Resolve(idx uint16) (Fn[H], string, error) {
	s := r.snap.Load()
	if int(idx) >= len(s.fns) {
		return nil, "", fmt.Errorf(
			"rpc: no task registered at index %d (registry has %d; did every process register the same tasks in the same order?)",
			idx, len(s.fns))
	}
	return s.fns[idx], s.tags[idx], nil
}

// Fn returns the function registered at idx, or nil if there is none
// (Resolve says why). Unlike Resolve it is small enough to inline into
// the executor's per-task dispatch.
func (r *Registry[H]) Fn(idx uint16) Fn[H] {
	if s := r.snap.Load(); int(idx) < len(s.fns) {
		return s.fns[idx]
	}
	return nil
}

// Len reports how many tasks are registered.
func (r *Registry[H]) Len() int { return len(r.snap.Load().fns) }

// Names returns the registered names in index order.
func (r *Registry[H]) Names() []string {
	return append([]string(nil), r.snap.Load().tags...)
}

// ---- Wire encodings ----
//
// The three message kinds of the task protocol, each riding the
// conduit's aggregation plane as a registered-handler active message
// (so small RPCs coalesce with everything else bound for the same
// rank):
//
//	request:  [task u16][flags u8][callID u64][doneID u64][args...]
//	reply:    [callID u64][reply bytes...]
//	done-ack: [doneID u64][count u32]
//
// callID keys the caller's pending-reply table (futures and signal
// events); doneID keys the caller's finish-scope table — the executor
// acknowledges a task only when its whole subtree (tasks spawned by
// the task, and the aggregated operations it issued) has quiesced,
// which is what gives Finish its distributed semantics. A done-ack is
// counted: one message certifies count quiesced tasks of the same
// scope, so an executor owing many acks to one scope ships one. A zero
// id means the corresponding half of the protocol is unused.
//
// The encoders are append-style: they extend dst and return it, so a
// caller can build a message on the stack or directly behind other
// bytes without an intermediate buffer.

// FlagReply marks a request whose caller awaits the body's return
// bytes (a future) or a completion signal (an event): the executor
// must send a reply message when the body returns.
const FlagReply byte = 1 << 0

// Fixed sizes: a request's prefix (also the per-launch protocol
// overhead the core's cost model charges on top of the encoded
// arguments), a reply's prefix, and a whole done-ack.
const (
	ReqHeaderBytes = 2 + 1 + 8 + 8
	RepHeaderBytes = 8
	DoneBytes      = 8 + 4
)

// AppendRequest appends a request message to dst.
func AppendRequest(dst []byte, task uint16, flags byte, callID, doneID uint64, args []byte) []byte {
	dst = append(dst, byte(task), byte(task>>8), flags)
	dst = binary.LittleEndian.AppendUint64(dst, callID)
	dst = binary.LittleEndian.AppendUint64(dst, doneID)
	return append(dst, args...)
}

// EncodeRequest builds a request message in a buffer of its own: it is
// AppendRequest onto an exact-size allocation, kept for the request
// codec probe of benchmark/ (which this change may not edit); the
// runtime itself only appends.
func EncodeRequest(task uint16, flags byte, callID, doneID uint64, args []byte) []byte {
	return AppendRequest(make([]byte, 0, ReqHeaderBytes+len(args)), task, flags, callID, doneID, args)
}

// Request is a decoded task request.
type Request struct {
	Task   uint16
	Flags  byte
	CallID uint64
	DoneID uint64
	Args   []byte // aliases the decoded buffer; valid only as long as it is
}

// DecodeRequest parses a request message.
func DecodeRequest(p []byte) (Request, error) {
	var q Request
	var err error
	q.Task, q.Flags, q.CallID, q.DoneID, q.Args, err = ParseRequest(p)
	return q, err
}

// ParseRequest is DecodeRequest returning the fields one by one, for the
// executor's per-task decode: a returned Request is spilled from
// registers word by word and then copied 16 bytes at a time, a
// store-forwarding stall on every task. args aliases p.
func ParseRequest(p []byte) (task uint16, flags byte, callID, doneID uint64, args []byte, err error) {
	if len(p) < ReqHeaderBytes {
		return 0, 0, 0, 0, nil, fmt.Errorf("rpc: truncated task request (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint16(p[0:]), p[2], binary.LittleEndian.Uint64(p[3:]),
		binary.LittleEndian.Uint64(p[11:]), p[ReqHeaderBytes:], nil
}

// AppendReply appends a reply message carrying the body's return bytes.
func AppendReply(dst []byte, callID uint64, data []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, callID), data...)
}

// DecodeReply parses a reply message; the returned data aliases p.
func DecodeReply(p []byte) (callID uint64, data []byte, err error) {
	if len(p) < RepHeaderBytes {
		return 0, nil, fmt.Errorf("rpc: truncated task reply (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p), p[RepHeaderBytes:], nil
}

// AppendDone appends a done-ack certifying count quiesced tasks of the
// caller's scope doneID.
func AppendDone(dst []byte, doneID uint64, count uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(dst, doneID), count)
}

// DecodeDone parses a done-ack message. A count of zero is malformed:
// an executor only acknowledges tasks that quiesced.
func DecodeDone(p []byte) (doneID uint64, count uint32, err error) {
	if len(p) != DoneBytes {
		return 0, 0, fmt.Errorf("rpc: malformed done-ack (%d bytes)", len(p))
	}
	if count = binary.LittleEndian.Uint32(p[8:]); count == 0 {
		return 0, 0, fmt.Errorf("rpc: done-ack with zero count")
	}
	return binary.LittleEndian.Uint64(p), count, nil
}

// ---- Argument codec ----
//
// Task arguments are POD by convention (the same guarantee the shared
// segment enforces); these helpers cover the common case of packing
// u64 words — offsets, ranks, seeds, global-pointer halves — without
// each call site hand-rolling binary.LittleEndian.

// AppendU64 appends v to an argument buffer.
func AppendU64(b []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(b, w[:]...)
}

// U64 consumes one u64 from the front of an argument buffer, returning
// the value and the remainder. Short buffers panic: argument layout is
// part of a task's contract, and a mismatch is a program bug on par
// with a wrong function signature.
func U64(b []byte) (uint64, []byte) {
	if len(b) < 8 {
		panic(fmt.Sprintf("rpc: argument buffer underflow (want 8 bytes, have %d)", len(b)))
	}
	return binary.LittleEndian.Uint64(b), b[8:]
}

// U64s packs the given words as an argument buffer.
func U64s(vs ...uint64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = AppendU64(b, v)
	}
	return b
}
