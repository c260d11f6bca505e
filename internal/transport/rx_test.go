package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"upcxx/internal/frames"
)

// chunkReader hands out src in reads of the given sizes (cycled; a
// size of 0 means one byte), the way a socket hands a stream over in
// whatever pieces the kernel happens to have.
type chunkReader struct {
	src   []byte
	sizes []int
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.src) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		n = max(c.sizes[c.i%len(c.sizes)], 1)
		c.i++
	}
	n = min(n, len(p), len(c.src))
	copy(p, c.src[:n])
	c.src = c.src[n:]
	return n, nil
}

// errClass folds a decode error to what the reader loop distinguishes:
// a clean end of stream, a cut inside a frame, or a refused frame.
func errClass(err error) string {
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	case errors.Is(err, io.EOF):
		return "EOF"
	default:
		return "refused"
	}
}

// reference decodes raw with readFrame, one frame at a time, until it
// fails: the frames (payloads copied out of the pool) and the error
// that ended the stream.
func reference(raw []byte) ([]Message, error) {
	var out []Message
	for r := bytes.NewReader(raw); ; {
		m, err := readFrame(r)
		if err != nil {
			return out, err
		}
		if m.pooled {
			p := m.Payload
			m.Payload = append([]byte(nil), p...)
			frames.Put(p)
		}
		out = append(out, m)
	}
}

// testSite is a landing site for the parser tests: a long frame lands
// when land says so, after the site has seen pre(h) bytes of prefix
// (h%9, up to a put's 8), and otherwise declines — before asking for a
// prefix when pre(h) is -1, after it when land says no. What landed is
// kept so the test can put the payload back together.
type testSite struct {
	pre  func(h uint16) int
	land func(h uint16) bool
	kept []byte // the landed frame's prefix, then its destination
	dst  []byte
	busy bool
	n    int // claims granted
}

func (s *testSite) prefix(h uint16, _ int64) int { return s.pre(h) }

func (s *testSite) claim(h uint16, _ uint64, prefix, head []byte, rest int) []byte {
	if s.busy {
		panic("claim while a claim is in progress")
	}
	if !s.land(h) {
		return nil
	}
	s.busy = true
	s.n++
	s.kept = append(s.kept[:0], prefix...)
	s.dst = make([]byte, rest)
	copy(s.dst, head)
	return s.dst
}

func (s *testSite) release(bool) { s.busy = false }

// checkRx decodes raw with the rx parser, fed in reads of the given
// sizes, and reports any difference from the reference decoding: in
// the frames, or in the class of the error that ends them. With a site,
// a landed frame's payload is its prefix followed by its destination.
func checkRx(raw []byte, sizes []int, site *testSite, want []Message, wantErr error) error {
	rx, src := new(frameReader), &chunkReader{src: raw, sizes: sizes}
	if site != nil {
		rx.site = site
	}
	landed := int64(0)
	for i := 0; ; i++ {
		g, err := rx.next(src)
		if err != nil {
			if errClass(err) != errClass(wantErr) {
				return fmt.Errorf("stream ended with %v, reference decoder with %v", err, wantErr)
			}
			if i != len(want) || rx.frames.Load() != int64(i) || rx.landed.Load() != landed {
				return fmt.Errorf("parsed %d frames (net_rx_frames %d, net_rx_landed %d of %d), reference decoder %d",
					i, rx.frames.Load(), rx.landed.Load(), landed, len(want))
			}
			if site != nil && site.busy {
				return fmt.Errorf("a claim was never released")
			}
			return nil
		}
		if i >= len(want) {
			return fmt.Errorf("parsed a frame %d, reference decoder stopped at %d (%v)", i, len(want), wantErr)
		}
		w := want[i]
		payload := g.Payload
		if g.Landed != 0 {
			landed++
			payload = append(append([]byte(nil), site.kept...), site.dst...)
			if g.Payload != nil || int(g.Landed) != len(payload) {
				return fmt.Errorf("frame %d landed %d bytes with %d of payload beside them", i, g.Landed, len(g.Payload))
			}
		}
		same := g.To == w.To && g.From == w.From && g.Handler == w.Handler && g.Arg == w.Arg &&
			bytes.Equal(payload, w.Payload)
		if g.pooled {
			frames.Put(g.Payload)
		}
		if !same {
			return fmt.Errorf("frame %d: got {to %d from %d h %d arg %d, %d B}, want {to %d from %d h %d arg %d, %d B}",
				i, g.To, g.From, g.Handler, g.Arg, len(g.Payload), w.To, w.From, w.Handler, w.Arg, len(w.Payload))
		}
	}
}

// stream serializes frames with the given payload sizes (handler = the
// frame's index + 1, arg = its size, payload a pattern of both).
func stream(t testing.TB, sizes ...int) []byte {
	var buf bytes.Buffer
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j*7)
		}
		if err := writeFrame(&buf, Message{To: 1, Handler: uint16(i + 1), Arg: uint64(n), Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRxSplitAtEveryOffset cuts a five-frame stream into two reads at
// every byte offset: an empty payload, one byte, a payload that ends
// one short of, exactly at, and one past the edge of the rx buffer, a
// 32 KiB payload (prefix from the buffer, remainder read straight into
// its frame) and a small frame behind it. Wherever the cut falls —
// inside a header, between header and payload, inside the copied
// prefix — the parser yields what readFrame yields.
func TestRxSplitAtEveryOffset(t *testing.T) {
	for _, delta := range []int{-1, 0, 1} {
		// Frames 0 and 1 take 26 and 27 bytes; frame 2's payload ends
		// at rxBufLen+delta.
		edge := rxBufLen + delta - (frameHdrLen + frameHdrLen + 1 + frameHdrLen)
		raw := stream(t, 0, 1, edge, 32<<10, 3)
		want, wantErr := reference(raw)
		if len(want) != 5 || wantErr != io.EOF {
			t.Fatalf("reference decoder: %d frames, %v", len(want), wantErr)
		}
		for cut := 0; cut <= len(raw); cut++ {
			if err := checkRx(raw, []int{cut, len(raw)}, nil, want, wantErr); err != nil {
				t.Fatalf("edge%+d, cut at %d of %d: %v", delta, cut, len(raw), err)
			}
		}
		// And dribbled in a byte at a time.
		if err := checkRx(raw, nil, nil, want, wantErr); err != nil {
			t.Fatalf("edge%+d, byte at a time: %v", delta, err)
		}
	}
}

// TestRxOneReadManyFrames pins the point of the buffer: frames that
// arrive together cost one Read together, and a frame larger than the
// buffer costs the read that brought its header plus one for the rest.
func TestRxOneReadManyFrames(t *testing.T) {
	rx := new(frameReader)
	src := bytes.NewReader(stream(t, 8, 0, 8, 40, 8)) // 5 frames, 194 bytes
	var err error
	for err == nil {
		_, err = rx.next(src) // payloads of at most 40 bytes: left to the collector
	}
	if err != io.EOF || rx.frames.Load() != 5 {
		t.Fatalf("5 small frames: %d parsed, ended with %v", rx.frames.Load(), err)
	}
	// One Read brought all five; the second found the end of the stream.
	if n := rx.reads.Load(); n != 2 {
		t.Errorf("5 frames arriving together took %d reads, want 2 (data, EOF)", n)
	}
	rx = new(frameReader)
	src = bytes.NewReader(stream(t, 32<<10))
	if _, err := rx.next(src); err != nil {
		t.Fatal(err)
	}
	if n := rx.reads.Load(); n != 2 {
		t.Errorf("a 32 KiB frame took %d reads, want 2 (header buffer, remainder)", n)
	}
}

// TestRxLandSplitAtEveryOffset is the split test for long frames that
// land. A lead frame puts a 2,000-byte frame's header so that the
// header, its 8-byte prefix or both straddle the rx buffer's edge (and,
// for contrast, at the start of the buffer); the stream is cut into two
// reads at every byte offset and dribbled in a byte at a time; and the
// site lands the long frame after an 8-byte and a 0-byte prefix,
// declines it after seeing the prefix, and declines it outright.
// Wherever the cut falls, the landed bytes are readFrame's payload, the
// frames around it are intact, and a decline leaves exactly the pooled
// path's result.
func TestRxLandSplitAtEveryOffset(t *testing.T) {
	long := func(h uint16) bool { return h == 2 } // stream's second frame
	sites := []struct {
		name  string
		pre   int
		lands bool
	}{
		{"land after an 8-byte prefix", 8, true},
		{"land with no prefix", 0, true},
		{"decline after the prefix", 8, false},
		{"decline outright", -1, false},
	}
	// edge is the lead payload that makes the long frame's header end
	// exactly at the end of the buffer.
	edge := rxBufLen - 2*frameHdrLen
	for _, lead := range []int{0, edge - 9, edge - 8, edge - 7, edge - 1, edge, edge + 1, edge + 13} {
		raw := stream(t, lead, 2000, 3)
		want, wantErr := reference(raw)
		if len(want) != 3 || wantErr != io.EOF {
			t.Fatalf("reference decoder: %d frames, %v", len(want), wantErr)
		}
		for _, sc := range sites {
			site := &testSite{
				pre: func(h uint16) int {
					if !long(h) {
						return -1
					}
					return sc.pre
				},
				land: func(h uint16) bool { return sc.lands && long(h) },
			}
			for cut := 0; cut <= len(raw)+1; cut++ {
				sizes := []int{cut, len(raw)}
				if cut == len(raw)+1 {
					sizes = nil // a byte at a time
				}
				site.n = 0
				if err := checkRx(raw, sizes, site, want, wantErr); err != nil {
					t.Fatalf("lead %d, %s, reads %v: %v", lead, sc.name, sizes, err)
				}
				if (site.n == 1) != sc.lands || site.n > 1 {
					t.Fatalf("lead %d, %s, reads %v: %d claims granted", lead, sc.name, sizes, site.n)
				}
			}
		}
	}
}

// FuzzRxFrames: arbitrary bytes, delivered in arbitrary read sizes,
// either fail or decode to exactly the frames readFrame decodes one at
// a time — never a panic, never a payload buffer for a length over
// MaxPayload (parseHeader refuses it before frames.Get, for both). Each
// input is decoded twice: with no landing site, and with one that lands
// the long frames of odd handlers after a prefix of h%9 bytes, declines
// even ones after the prefix, and never asks for multiples of four —
// where the landed bytes must be readFrame's payload too.
func FuzzRxFrames(f *testing.F) {
	f.Add(stream(f, 0, 1, 8, 300, 700), []byte{3, 26, 1, 200})
	f.Add(stream(f, 486, 487, 485), []byte{255})
	f.Add(stream(f, 8)[:20], []byte{7})
	over := stream(f, 8)
	over[18+7] = 0x7f // announces an absurd length
	f.Add(over, []byte{1})
	f.Add(stream(f, 460, 2000, 600, 900, 1000), []byte{0, 170, 1})
	// Reserved handler ids mid-stream parse like any other frame; it is
	// readLoop that refuses them.
	var reserved bytes.Buffer
	for _, h := range []uint16{1, helloHandler, peerDownHandler, wakeHandler, byeHandler, 2} {
		writeFrame(&reserved, Message{To: 1, Handler: h, Arg: 9, Payload: []byte("hostile")})
	}
	f.Add(reserved.Bytes(), []byte{5})
	f.Fuzz(func(t *testing.T, raw, cuts []byte) {
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			sizes[i] = int(c) * 3 // up to 765: below, at and past rxBufLen
		}
		want, wantErr := reference(raw)
		if err := checkRx(raw, sizes, nil, want, wantErr); err != nil {
			t.Fatal(err)
		}
		site := &testSite{
			pre: func(h uint16) int {
				if h%4 == 0 {
					return -1
				}
				return int(h % 9)
			},
			land: func(h uint16) bool { return h%2 == 1 },
		}
		if err := checkRx(raw, sizes, site, want, wantErr); err != nil {
			t.Fatalf("with landing: %v", err)
		}
	})
}
