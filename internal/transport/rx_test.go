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

// checkRx decodes raw with the rx parser, fed in reads of the given
// sizes, and reports any difference from the reference decoding: in
// the frames, or in the class of the error that ends them.
func checkRx(raw []byte, sizes []int, want []Message, wantErr error) error {
	rx, src := new(frameReader), &chunkReader{src: raw, sizes: sizes}
	for i := 0; ; i++ {
		g, err := rx.next(src)
		if err != nil {
			if errClass(err) != errClass(wantErr) {
				return fmt.Errorf("stream ended with %v, reference decoder with %v", err, wantErr)
			}
			if i != len(want) || rx.frames.Load() != int64(i) {
				return fmt.Errorf("parsed %d frames (net_rx_frames %d), reference decoder %d",
					i, rx.frames.Load(), len(want))
			}
			return nil
		}
		if i >= len(want) {
			return fmt.Errorf("parsed a frame %d, reference decoder stopped at %d (%v)", i, len(want), wantErr)
		}
		w := want[i]
		same := g.To == w.To && g.From == w.From && g.Handler == w.Handler && g.Arg == w.Arg &&
			bytes.Equal(g.Payload, w.Payload)
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
			if err := checkRx(raw, []int{cut, len(raw)}, want, wantErr); err != nil {
				t.Fatalf("edge%+d, cut at %d of %d: %v", delta, cut, len(raw), err)
			}
		}
		// And dribbled in a byte at a time.
		if err := checkRx(raw, nil, want, wantErr); err != nil {
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

// FuzzRxFrames: arbitrary bytes, delivered in arbitrary read sizes,
// either fail or decode to exactly the frames readFrame decodes one at
// a time — never a panic, never a payload buffer for a length over
// MaxPayload (parseHeader refuses it before frames.Get, for both).
func FuzzRxFrames(f *testing.F) {
	f.Add(stream(f, 0, 1, 8, 300, 700), []byte{3, 26, 1, 200})
	f.Add(stream(f, 486, 487, 485), []byte{255})
	f.Add(stream(f, 8)[:20], []byte{7})
	over := stream(f, 8)
	over[18+7] = 0x7f // announces an absurd length
	f.Add(over, []byte{1})
	f.Fuzz(func(t *testing.T, raw, cuts []byte) {
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			sizes[i] = int(c) * 3 // up to 765: below, at and past rxBufLen
		}
		want, wantErr := reference(raw)
		if err := checkRx(raw, sizes, want, wantErr); err != nil {
			t.Fatal(err)
		}
	})
}
