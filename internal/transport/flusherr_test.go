package transport

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// failWrites makes every subsequent write on ep's connection to peer
// fail deterministically by moving its write deadline into the past —
// the in-process stand-in for a peer whose link died between our last
// flush and this one.
func failWrites(t *testing.T, ep *TCPEndpoint, peer int) {
	t.Helper()
	ep.mu.Lock()
	c := ep.conns[peer]
	ep.mu.Unlock()
	if c == nil {
		t.Fatalf("no connection to peer %d", peer)
	}
	if err := c.(*net.TCPConn).SetWriteDeadline(time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestFlushErrorRetiresPeerSurvivable: a failed vectored write at flush
// time must route into the peer-down path — the peer retires, the
// handler observes the flush cause, and later sends fail fast with the
// typed error — instead of being silently swallowed.
func TestFlushErrorRetiresPeerSurvivable(t *testing.T) {
	type downEv struct {
		peer  int
		cause error
	}
	var mu sync.Mutex
	var downs []downEv
	eps := meshWith(t, 2, func(int) Options {
		return Options{PeerDown: func(peer int, cause error) {
			mu.Lock()
			downs = append(downs, downEv{peer, cause})
			mu.Unlock()
		}}
	})

	failWrites(t, eps[0], 1)
	if err := eps[0].Send(Message{To: 1, Handler: 3, Arg: 7}); err != nil {
		t.Fatalf("queueing send: %v", err)
	}
	eps[0].Flush()

	if !eps[0].PeerDown(1) {
		t.Fatal("flush failure did not retire the peer")
	}
	// The retirement reaches the dispatch plane: the synthetic
	// peer-down message runs the handler with the flush-time cause.
	for i := 0; len(downs) == 0 && i < 1000; i++ {
		eps[0].Poll()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(downs) != 1 || downs[0].peer != 1 {
		t.Fatalf("peer-down events = %+v, want one for peer 1", downs)
	}
	if !strings.Contains(downs[0].cause.Error(), "flushing") {
		t.Errorf("cause %q does not name the flush path", downs[0].cause)
	}
	// Subsequent sends fail fast with the typed error.
	if err := eps[0].Send(Message{To: 1, Handler: 3}); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send after flush failure: %v, want ErrPeerDown", err)
	}
}

// TestFlushErrorTearsDownLegacy: without a peer-down handler a flush
// failure is whole-endpoint fatal, matching the reader-side loss
// semantics.
func TestFlushErrorTearsDownLegacy(t *testing.T) {
	eps := meshWith(t, 2, nil)
	failWrites(t, eps[0], 1)
	if err := eps[0].Send(Message{To: 1, Handler: 3}); err != nil {
		t.Fatalf("queueing send: %v", err)
	}
	eps[0].Flush()
	if err := eps[0].Err(); err == nil {
		t.Fatal("flush failure left no endpoint error")
	} else if !strings.Contains(err.Error(), "flushing") {
		t.Errorf("teardown cause %q does not name the flush path", err)
	}
	if err := eps[0].Send(Message{To: 1, Handler: 3}); err == nil {
		t.Fatal("send on a torn-down endpoint succeeded")
	}
}

// TestInlineFlushErrorSurfacesOnSend: a send large enough to trip the
// inline flush threshold reports the write failure on the Send call
// itself, with the same typed error.
func TestInlineFlushErrorSurfacesOnSend(t *testing.T) {
	eps := meshWith(t, 2, func(int) Options { return Options{PeerDown: func(int, error) {}} })
	failWrites(t, eps[0], 1)
	big := make([]byte, flushThreshold)
	if err := eps[0].Send(Message{To: 1, Handler: 3, Payload: big}); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("oversized send on a dead link: %v, want ErrPeerDown", err)
	}
	if !eps[0].PeerDown(1) {
		t.Fatal("inline flush failure did not retire the peer")
	}
}
