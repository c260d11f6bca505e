package rpc

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry[int]()
	a := r.Register("a", func(h, from int, args []byte) []byte { return []byte{1} })
	b := r.Register("b", func(h, from int, args []byte) []byte { return []byte{2} })
	if !a.Valid() || !b.Valid() {
		t.Fatal("registered tasks should be valid")
	}
	if a.Index() != 0 || b.Index() != 1 {
		t.Fatalf("indices = %d, %d; want 0, 1", a.Index(), b.Index())
	}
	fn, name, err := r.Resolve(b.Index())
	if err != nil || name != "b" {
		t.Fatalf("Resolve(1) = %q, %v", name, err)
	}
	if got := fn(0, 0, nil); !bytes.Equal(got, []byte{2}) {
		t.Fatalf("resolved wrong function: %v", got)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v", got)
	}
}

func TestResolveUnknownIndex(t *testing.T) {
	r := NewRegistry[int]()
	r.Register("only", func(h, from int, args []byte) []byte { return nil })
	_, _, err := r.Resolve(7)
	if err == nil {
		t.Fatal("Resolve of unregistered index should error")
	}
	if !strings.Contains(err.Error(), "index 7") || !strings.Contains(err.Error(), "same order") {
		t.Fatalf("error should name the index and the registration discipline: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry[int]()
	r.Register("dup", func(h, from int, args []byte) []byte { return nil })
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("duplicate registration should panic")
		}
		if !strings.Contains(p.(string), "dup") {
			t.Fatalf("panic should name the task: %v", p)
		}
	}()
	r.Register("dup", func(h, from int, args []byte) []byte { return nil })
}

func TestZeroTaskPanics(t *testing.T) {
	var z Task
	if z.Valid() {
		t.Fatal("zero Task should be invalid")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Index of zero Task should panic")
		}
	}()
	z.Index()
}

func TestRequestRoundTrip(t *testing.T) {
	args := []byte("hello args")
	p := AppendRequest(nil, 42, FlagReply, 7, 9, args)
	if !bytes.Equal(p, EncodeRequest(42, FlagReply, 7, 9, args)) {
		t.Fatal("EncodeRequest differs from AppendRequest onto an empty buffer")
	}
	req, err := DecodeRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	if req.Task != 42 || req.Flags != FlagReply || req.CallID != 7 || req.DoneID != 9 {
		t.Fatalf("decoded header = %+v", req)
	}
	if !bytes.Equal(req.Args, args) {
		t.Fatalf("args = %q", req.Args)
	}
	if _, err := DecodeRequest(p[:10]); err == nil {
		t.Fatal("truncated request should error")
	}
	// Append-style: bytes already in dst stay in front, untouched.
	if q := AppendRequest([]byte("xy"), 42, FlagReply, 7, 9, args); !bytes.Equal(q, append([]byte("xy"), p...)) {
		t.Fatalf("AppendRequest behind a prefix = %x", q)
	}
}

func TestReplyAndDoneRoundTrip(t *testing.T) {
	callID, data, err := DecodeReply(AppendReply(nil, 3, []byte("out")))
	if err != nil || callID != 3 || !bytes.Equal(data, []byte("out")) {
		t.Fatalf("reply round trip = %d, %q, %v", callID, data, err)
	}
	// Zero-length replies are legal (a task with no return value).
	if _, data, err = DecodeReply(AppendReply(nil, 4, nil)); err != nil || len(data) != 0 {
		t.Fatalf("empty reply round trip = %q, %v", data, err)
	}
	if _, _, err := DecodeReply([]byte{1, 2}); err == nil {
		t.Fatal("truncated reply should error")
	}
	id, n, err := DecodeDone(AppendDone(nil, 11, 5000))
	if err != nil || id != 11 || n != 5000 {
		t.Fatalf("done round trip = %d x%d, %v", id, n, err)
	}
	for _, bad := range [][]byte{{1}, AppendDone(nil, 11, 1)[:8], append(AppendDone(nil, 11, 1), 0), AppendDone(nil, 11, 0)} {
		if _, _, err := DecodeDone(bad); err == nil {
			t.Fatalf("malformed done-ack %x should error", bad)
		}
	}
}

// The fuzz targets hold every decoder to one invariant on arbitrary
// bytes: it returns an error, or re-encoding what it decoded gives the
// input back exactly; it never panics.

func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, 42, FlagReply, 7, 9, []byte("hello args")))
	f.Add(AppendRequest(nil, 0, 0, 0, 0, nil))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := DecodeRequest(p)
		if err != nil {
			return
		}
		if q := AppendRequest(nil, req.Task, req.Flags, req.CallID, req.DoneID, req.Args); !bytes.Equal(q, p) {
			t.Fatalf("request %x re-encodes as %x", p, q)
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Add(AppendReply(nil, 3, []byte("out")))
	f.Add(AppendReply(nil, 4, nil))
	f.Add([]byte{1, 2})
	f.Fuzz(func(t *testing.T, p []byte) {
		callID, data, err := DecodeReply(p)
		if err != nil {
			return
		}
		if q := AppendReply(nil, callID, data); !bytes.Equal(q, p) {
			t.Fatalf("reply %x re-encodes as %x", p, q)
		}
	})
}

func FuzzDecodeDone(f *testing.F) {
	f.Add(AppendDone(nil, 11, 5000))
	f.Add(AppendDone(nil, 11, 0))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, n, err := DecodeDone(p)
		if err != nil {
			return
		}
		if n == 0 {
			t.Fatalf("done-ack %x decoded with a zero count", p)
		}
		if q := AppendDone(nil, id, n); !bytes.Equal(q, p) {
			t.Fatalf("done-ack %x re-encodes as %x", p, q)
		}
	})
}

// TestRegisterResolveConcurrent: resolvers read the copy-on-write
// snapshot while registration is still going on; every index a reader
// has seen published must keep resolving to its own function (run
// under -race).
func TestRegisterResolveConcurrent(t *testing.T) {
	const tasks, readers = 200, 4
	r := NewRegistry[int]()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seen := 0; seen < tasks; {
				seen = r.Len()
				for i := 0; i < seen; i++ {
					fn, name, err := r.Resolve(uint16(i))
					if err != nil || name != fmt.Sprint("t", i) || fn(0, 0, nil)[0] != byte(i) {
						t.Errorf("Resolve(%d) of %d = %q, %v", i, seen, name, err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < tasks; i++ {
		i := i
		r.Register(fmt.Sprint("t", i), func(int, int, []byte) []byte { return []byte{byte(i)} })
	}
	wg.Wait()
	if _, _, err := r.Resolve(tasks); err == nil {
		t.Fatal("index past the registry should not resolve")
	}
}

// BenchmarkRegistryResolveParallel is the executor side's per-task
// lookup under contention: every rank goroutine of an in-process job
// resolves through the one process-global registry.
func BenchmarkRegistryResolveParallel(b *testing.B) {
	r := NewRegistry[int]()
	for i := 0; i < 8; i++ {
		r.Register(fmt.Sprint("t", i), func(int, int, []byte) []byte { return nil })
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := uint16(0); pb.Next(); i++ {
			if _, _, err := r.Resolve(i & 7); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func TestArgCodec(t *testing.T) {
	b := U64s(1, 2, 3)
	v, rest := U64(b)
	if v != 1 {
		t.Fatalf("first word = %d", v)
	}
	v, rest = U64(rest)
	if v != 2 {
		t.Fatalf("second word = %d", v)
	}
	v, rest = U64(rest)
	if v != 3 || len(rest) != 0 {
		t.Fatalf("third word = %d, rest %d bytes", v, len(rest))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("underflow should panic")
		}
	}()
	U64(rest)
}
