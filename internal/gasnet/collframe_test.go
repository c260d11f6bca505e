package gasnet

import (
	"bytes"
	"strings"
	"testing"

	"upcxx/internal/transport"
)

// collRank builds rank 0 of a job of two hosts with one rank each: its
// hierarchical conduit, over an endpoint that is never connected, so
// the test can call the collective handlers the way the dispatch loop
// does, with frames from rank 1, and read a sever from the endpoint.
func collRank(t *testing.T) *HierConduit {
	t.Helper()
	tep, err := transport.ListenTCP(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shm, err := CreateShm(t.TempDir(), 0, 1, minShmRingBytes, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if err := shm.Attach(); err != nil {
		t.Fatal(err)
	}
	h := NewHierConduit(NewWireConduit(tep, newShmTestMem(shm.Seg())), shm, []int{0, 1})
	t.Cleanup(func() { h.Close() })
	return h
}

// fragment is the one frame sendFragmented makes of a short payload.
func fragment(total, off uint64, data ...byte) []byte {
	p := make([]byte, 16, 16+len(data))
	putU64(p, total)
	putU64(p[8:], off)
	return append(p, data...)
}

// FuzzCollectiveFrames sends arbitrary payloads to the five collective
// handlers — the flat team gather and result, the hierarchical subtree
// blob, table and barrier token — and holds each to a reference. A
// fuzz payload is far below maxFragData, so a well-formed collective
// fragment is a whole payload in one frame ([total = len-16][off 0]
// [data]), which must land where the handler parks it, and a barrier
// token is 8 bytes. Anything else must sever the sender with a cause
// naming the handler. Never a panic, and no allocation a header alone
// asks for.
func FuzzCollectiveFrames(f *testing.F) {
	f.Add(byte(0), uint64(1), fragment(3, 0, 7, 8, 9))
	f.Add(byte(0), uint64(1), []byte{1, 2, 3})                            // shorter than the header
	f.Add(byte(1), uint64(2), fragment(8, 1<<40, 1, 2, 3, 4, 5, 6, 7, 8)) // offset past the total
	f.Add(byte(1), uint64(2), fragment(0, 0))
	f.Add(byte(2), uint64(3), fragment(1<<62, 0, 1))                  // a total no rank should allocate
	f.Add(byte(3), uint64(4), fragment(4, 0, 1, 2, 3, 4, 5, 6, 7, 8)) // more data than the total
	f.Add(byte(3), uint64(4), fragment(9, 0, 1, 2, 3))                // a short fragment before the last
	f.Add(byte(4), uint64(5), []byte{})                               // a barrier token without its round
	f.Add(byte(4), uint64(5), []byte{2, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, which byte, key uint64, payload []byte) {
		h := collRank(t)
		w := h.wire
		handlers := []struct {
			id uint16
			fn transport.Handler
		}{
			{hTeamGather, w.onTeamGather},
			{hTeamResult, w.onTeamResult},
			{hHierGather, h.onHierGather},
			{hHierTable, h.onHierTable},
			{hHierBar, h.onHierBar},
		}
		hd := handlers[int(which)%len(handlers)]
		hd.fn(w.tep, transport.Message{From: 1, To: 0, Handler: hd.id, Arg: key, Payload: payload})

		ok := len(payload) >= 16 && u64(payload) == uint64(len(payload)-16) && u64(payload[8:]) == 0
		if hd.id == hHierBar {
			ok = len(payload) == 8
		}
		name := handlerNames[hd.id]
		if err := w.tep.Err(); !ok {
			if err == nil || !strings.Contains(err.Error(), "malformed "+name+" frame") {
				t.Fatalf("%s, %d-byte payload %x: sender not severed for a malformed frame (endpoint error %v)",
					name, len(payload), payload, err)
			}
			return
		} else if err != nil {
			t.Fatalf("%s, %d-byte payload: well-formed frame severed its sender: %v", name, len(payload), err)
		}

		var got []byte
		found := false
		switch hd.id {
		case hTeamGather:
			got, found = w.teamParts[key][1]
		case hTeamResult:
			got, found = w.teamResult[key]
		case hHierGather:
			got, found = h.treeBlobs[key][1]
		case hHierTable:
			got, found = h.hierTable[key]
		case hHierBar:
			if n := h.barWire[hierBarKey{key: key, round: int(u64(payload))}]; n != 1 {
				t.Fatalf("hierbar round %d: %d tokens counted, want 1", u64(payload), n)
			}
			return
		}
		if !found || !bytes.Equal(got, payload[16:]) {
			t.Fatalf("%s, %d-byte payload: parked %x (found %v), want %x", name, len(payload), got, found, payload[16:])
		}
	})
}
