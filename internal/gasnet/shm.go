package gasnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"upcxx/internal/obs"
)

// ShmConduit is the intra-host communication substrate of the
// hierarchical backend: every co-located rank owns one mmap'd file
// holding its shared segment plus one lock-free SPSC ring per co-located
// peer, so same-host puts and gets are direct loads and stores (the
// shared-memory bypass real GASNet conduits perform with PSHM) and
// same-host active messages are ring writes — no kernel round trip, no
// wire frame. It is not a full Conduit: HierConduit composes it with a
// WireConduit, routing each operation by peer locality.
//
// File layout (rank i's file, rank<i>.shm in the job's shm directory):
//
//	[64B header: magic, nLocal, ringBytes, segBytes, wake u32 @32, proc u64 @40]
//	nLocal ring blocks of 128+ringBytes each — block j carries messages
//	  from local rank j to local rank i (the self block is unused):
//	    [head u64 @0, consumer-owned] [tail u64 @64, producer-owned]
//	    [ringBytes of record data]
//	[segBytes of shared segment]
//
// head/tail are monotonically increasing byte counts (position = count
// mod ringBytes); the 64-byte spacing keeps the two control words on
// separate cache lines. Records are 8-byte aligned:
//
//	[len u32 (bit31 = more-fragments)] [handler u16] [pad u16] [arg u64]
//	[payload, padded to 8]
//
// Payloads longer than ringBytes/4 are fragmented (the more-fragments
// bit chains them); SPSC ordering makes reassembly a plain append.
//
// The wake word (header offset 32) is how a rank that is about to block
// tells its neighbours so: 1 means "my rings were empty and my
// predicate false after I stored this; ring my doorbell when you
// publish". Its owner stores 1 before the last re-poll of every park
// and 0 when the park returns; a publisher that finds 1 takes it back
// to 0 by CAS, and the winner of that CAS — exactly one per arming —
// rings the bell. The words beside it are written once by CreateShm
// and read once by Attach, so the wake word has the header's cache line
// to itself: neighbours' loads of it after every publish stay in their
// caches until the owner actually parks. Park and ringIfArmed are the
// two halves of the protocol.
//
// What a bell is depends on where the peer runs, and Attach chooses it
// per peer from the nonce in the peer's header (proc, drawn once per
// OS process). A peer in this process is rung by a call: the composer's
// wake that Listen registered for it, found through a process-local
// table from shm file path to conduit (ringNear). A peer in another
// process is rung through a named FIFO beside its file, rank<i>.bell:
// its owner holds it open for reading and writing (so a read never
// sees EOF) through the runtime's poller, every co-located peer in
// another process holds a non-blocking write end, and ringing is the
// write of one byte (ringBell). A reader goroutine (Listen) turns
// arriving bytes into the same wake; it blocks in the netpoller, not
// on a P, and a rank whose peers all share its process starts none.
// Either way a ring never blocks its publisher and counts the same:
// shm_bells_tx at the ringer, shm_bells_rx at the rung.
//
// The nonce also tells a rank whose peers all carry its own that it is
// one goroutine among goroutines (RunHierLocal), and only then does a
// runtime.Gosched in its poll loop hand the CPU to the neighbour it is
// waiting for (PeersAreGoroutines).
//
// Setup is two-phase to avoid a filesystem race: every rank Creates its
// own file before the job rendezvous, then Attaches to its peers' files
// after — so by the time any rank attaches, every file exists at full
// size.
//
// Like the wire conduit, an ShmConduit must be driven by a single
// goroutine (its rank's SPMD goroutine); handlers execute inside Poll.
type ShmConduit struct {
	dir       string
	me        int // local index among co-located ranks
	n         int // number of co-located ranks
	ringBytes int
	segBytes  int

	files  [][]byte // mmap per local rank's file (files[me] created, rest attached)
	closed bool
	// The doorbell: bells[j] rings co-located rank j, as Attach chose
	// it. bellRx is this rank's FIFO, bellTx[j] the write end of rank
	// j's (-1 for self, for a peer in this process, and for one whose
	// reader was already gone at Attach). woken is the wake Listen was
	// given, which both carriers end in; bellDone closes when the FIFO
	// reader Listen started has exited (nil if it started none).
	bells    []func()
	bellRx   *os.File
	bellTx   []int
	woken    func()
	bellDone chan struct{}
	// goroutines: every attached peer's file was created by this process.
	goroutines bool

	handlers map[uint16]func(from int, arg uint64, payload []byte)
	partial  [][]byte // per-producer fragment accumulator

	// The composing conduit installs both before any traffic. wait is
	// the blocking wait a push on a full ring takes — the composer's
	// one wait loop, so a stalled producer parks (and keeps serving
	// both planes) exactly like any other blocked operation. bell wakes
	// co-located rank `local` out of its Park; it may be called from
	// inside Send or Poll. It calls bells[local] unless a protocol test
	// has put its own counter in the seam.
	wait func(pred func() bool) error
	bell func(local int)
	// parked counts the Parks in progress: a handler run by a park's
	// re-poll can park in turn (a push on a full ring), and only the
	// outermost return may clear the wake word.
	parked int

	// Traffic counters: written on the SPMD goroutine, read live by the
	// debug plane, hence atomics.
	txMsgs, rxMsgs, txBytes, rxBytes atomic.Int64
	parks, bellsTx                   atomic.Int64
	bellsRx, bellsLost               atomic.Int64

	// obsRing is this rank's span ring (nil unless tracing was on), set
	// by the composing HierConduit when it is built.
	obsRing *obs.Ring
}

const (
	shmMagic     = 0x75706378782d7368 // "upcxx-sh"
	shmHdrBytes  = 64
	shmWakeOff   = 32 // wake word's offset in the header
	shmProcOff   = 40 // creating process's nonce
	shmCtlBytes  = 128
	shmRecHdr    = 16
	shmMoreFlag  = 1 << 31
	shmAlignMask = 7

	// DefaultShmRingBytes is the per-peer ring capacity when the caller
	// passes 0.
	DefaultShmRingBytes = 1 << 20
	minShmRingBytes     = 4096
)

// shmProc identifies this OS process in the files it creates (a pid
// would repeat across pid namespaces sharing one shm directory).
var shmProc = rand.Uint64()

// shmNear maps the shm file path of every listening conduit of this
// process to that conduit: Listen adds it, Close removes it, and a bell
// to a peer of this process looks its target up here.
var shmNear sync.Map // string -> *ShmConduit

// ShmPath returns rank me's shm file path inside dir.
func ShmPath(dir string, me int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%d.shm", me))
}

// bellPath returns rank me's doorbell FIFO path inside dir.
func bellPath(dir string, me int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%d.bell", me))
}

func shmFileSize(n, ringBytes, segBytes int) int {
	return shmHdrBytes + n*(shmCtlBytes+ringBytes) + segBytes
}

// CreateShm creates and maps this rank's own shm file (local index me of
// n co-located ranks, each with a segBytes shared segment) and creates
// its doorbell FIFO. ringBytes 0 takes the default. Call before the job
// rendezvous; Attach after.
func CreateShm(dir string, me, n, ringBytes, segBytes int) (*ShmConduit, error) {
	if ringBytes <= 0 {
		ringBytes = DefaultShmRingBytes
	}
	if ringBytes < minShmRingBytes {
		ringBytes = minShmRingBytes
	}
	ringBytes = (ringBytes + shmAlignMask) &^ shmAlignMask
	if me < 0 || me >= n {
		return nil, fmt.Errorf("gasnet: shm local index %d out of %d", me, n)
	}
	size := shmFileSize(n, ringBytes, segBytes)
	buf, err := shmMap(ShmPath(dir, me), size, true)
	if err != nil {
		return nil, err
	}
	bell, err := createBell(bellPath(dir, me))
	if err != nil {
		syscall.Munmap(buf)
		return nil, err
	}
	binary.LittleEndian.PutUint64(buf[0:], shmMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:], uint64(ringBytes))
	binary.LittleEndian.PutUint64(buf[24:], uint64(segBytes))
	binary.LittleEndian.PutUint64(buf[shmProcOff:], shmProc)
	c := &ShmConduit{
		dir:        dir,
		me:         me,
		n:          n,
		ringBytes:  ringBytes,
		segBytes:   segBytes,
		files:      make([][]byte, n),
		bells:      make([]func(), n),
		bellRx:     bell,
		bellTx:     make([]int, n),
		goroutines: true,
		handlers:   make(map[uint16]func(int, uint64, []byte)),
		partial:    make([][]byte, n),
	}
	c.files[me] = buf
	for j := range c.bellTx {
		c.bellTx[j] = -1
	}
	c.bell = func(j int) { c.bells[j]() }
	return c, nil
}

// createBell makes a fresh FIFO at path — whatever a crashed job left
// under that name is unlinked, as its shm file is truncated — and opens
// it for reading. O_RDWR keeps a writer on it for as long as we read,
// so the read end never reports EOF between two peers' lifetimes;
// O_NONBLOCK is what makes os hand the descriptor to the poller.
func createBell(path string) (*os.File, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		return nil, fmt.Errorf("gasnet: mkfifo %s: %w", path, err)
	}
	return os.OpenFile(path, os.O_RDWR|syscall.O_NONBLOCK, 0)
}

// Attach maps every peer's shm file and chooses its bell: a call for a
// peer of this process, the write end of its FIFO for any other. All
// ranks must have Created theirs first (the launcher's rendezvous
// provides that ordering).
func (c *ShmConduit) Attach() error {
	size := shmFileSize(c.n, c.ringBytes, c.segBytes)
	for j := 0; j < c.n; j++ {
		if j == c.me {
			continue
		}
		buf, err := shmMap(ShmPath(c.dir, j), size, false)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(buf[0:]) != shmMagic ||
			binary.LittleEndian.Uint64(buf[8:]) != uint64(c.n) ||
			binary.LittleEndian.Uint64(buf[16:]) != uint64(c.ringBytes) ||
			binary.LittleEndian.Uint64(buf[24:]) != uint64(c.segBytes) {
			return fmt.Errorf("gasnet: shm file %s disagrees on geometry", ShmPath(c.dir, j))
		}
		c.files[j] = buf
		if binary.LittleEndian.Uint64(buf[shmProcOff:]) == shmProc {
			path := ShmPath(c.dir, j)
			c.bells[j] = func() { c.ringNear(path) }
			continue
		}
		c.goroutines = false
		c.bells[j] = func() { c.ringBell(j) }
		// A raw descriptor, written on the rank's goroutine only: a full
		// FIFO must fail the write, not park it in the poller. ENXIO is a
		// FIFO nobody reads — the peer is gone already; ringBell counts
		// what it cannot deliver.
		switch fd, err := syscall.Open(bellPath(c.dir, j), syscall.O_WRONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0); err {
		case nil:
			c.bellTx[j] = fd
		case syscall.ENXIO:
		default:
			return fmt.Errorf("gasnet: open %s: %w", bellPath(c.dir, j), err)
		}
	}
	return nil
}

func shmMap(path string, size int, create bool) ([]byte, error) {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o600)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if create {
		if err := f.Truncate(int64(size)); err != nil {
			return nil, err
		}
	}
	buf, err := syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("gasnet: mmap %s: %w", path, err)
	}
	return buf, nil
}

// Locals returns the number of co-located ranks; Local returns this
// rank's index among them.
func (c *ShmConduit) Locals() int { return c.n }

// Local returns this rank's local index.
func (c *ShmConduit) Local() int { return c.me }

// PeersAreGoroutines reports whether every co-located peer runs in this
// OS process (valid after Attach).
func (c *ShmConduit) PeersAreGoroutines() bool { return c.goroutines }

// Seg returns this rank's shared-segment window of its own mapped file;
// wrap it with segment.NewExtern so co-located peers' direct loads and
// stores land in the same physical pages the owner allocates from.
func (c *ShmConduit) Seg() []byte {
	off := shmHdrBytes + c.n*(shmCtlBytes+c.ringBytes)
	return c.files[c.me][off : off+c.segBytes : off+c.segBytes]
}

// PeerSeg returns the mapped shared-segment window of co-located rank
// j's file (valid after Attach). Direct loads/stores here are the
// shared-memory puts and gets of the hierarchical conduit.
func (c *ShmConduit) PeerSeg(j int) []byte {
	off := shmHdrBytes + c.n*(shmCtlBytes+c.ringBytes)
	return c.files[j][off : off+c.segBytes : off+c.segBytes]
}

// Register installs the handler for one shm AM id. Handlers run inside
// Poll on the consumer's goroutine and must not block.
func (c *ShmConduit) Register(h uint16, fn func(from int, arg uint64, payload []byte)) {
	c.handlers[h] = fn
}

// wake returns co-located rank j's wake word.
func (c *ShmConduit) wake(j int) *uint32 {
	return (*uint32)(unsafe.Pointer(&c.files[j][shmWakeOff]))
}

// Park is the waiter's half of the wake protocol. It hands block — the
// blocking wait that bell interrupts — a predicate that arms the wake
// word, re-polls the rings and only then evaluates pred, so block
// blocks only on a false return. A record published before the store
// of 1 is found by the re-poll; one published after it finds the word
// set and rings: sync/atomic operations on the shared mapping are
// sequentially consistent, across goroutines and across processes, so
// "both sides miss" is excluded.
func (c *ShmConduit) Park(pred func() bool, block func(armed func() bool) error) error {
	c.parks.Add(1)
	w := c.wake(c.me)
	c.parked++
	defer func() {
		if c.parked--; c.parked == 0 {
			atomic.StoreUint32(w, 0)
		}
	}()
	return block(func() bool {
		atomic.StoreUint32(w, 1)
		c.Poll()
		return pred()
	})
}

// ringIfArmed is the publisher's half: call it after storing a ring
// control word rank j may be waiting on.
func (c *ShmConduit) ringIfArmed(j int) {
	if w := c.wake(j); atomic.LoadUint32(w) == 1 && atomic.CompareAndSwapUint32(w, 1, 0) {
		c.bellsTx.Add(1)
		c.bell(j)
	}
}

// ringNear is the bell of a peer in this process: it calls the wake the
// peer's Listen registered, the TCPEndpoint.Wake its FIFO reader would
// end in, which never blocks — two ranks ringing each other from
// handlers cannot wait on each other. A peer that has closed its
// conduit is no longer in the table; the ring is counted lost, as an
// EPIPE is on the FIFO.
func (c *ShmConduit) ringNear(path string) {
	if p, ok := shmNear.Load(path); ok {
		p.(*ShmConduit).rung(1)
		return
	}
	c.bellsLost.Add(1)
}

// rung counts n bells received and wakes the composer.
func (c *ShmConduit) rung(n int) {
	c.bellsRx.Add(int64(n))
	c.woken()
}

// ringBell is the bell of a peer in another process: one byte into its
// FIFO. It cannot fail the publisher. EAGAIN is 64 KiB of bells nobody
// has read yet, so a wake is queued already; EPIPE (the signal that
// comes with it is one Go ignores on any descriptor but 1 and 2) means
// the peer has closed its conduit or died, which is counted and left
// to whoever is waiting on that peer to report.
func (c *ShmConduit) ringBell(j int) {
	var one [1]byte
	switch _, err := syscall.Write(c.bellTx[j], one[:]); err {
	case nil, syscall.EAGAIN:
	default: // EPIPE; EBADF on the -1 an ENXIO left at Attach
		c.bellsLost.Add(1)
	}
}

// Listen makes wake — which must not block, and must be safe from any
// goroutine — what every bell to this rank ends in, until Close: peers
// of this process call it directly, and if any peer runs in another
// process a goroutine reads this rank's FIFO and calls it for every
// batch of bytes that arrives. The composer calls it once, after
// Attach, with what unblocks the wait its Park blocks in.
func (c *ShmConduit) Listen(wake func()) {
	c.woken = wake
	shmNear.Store(ShmPath(c.dir, c.me), c)
	if c.goroutines {
		return
	}
	c.bellDone = make(chan struct{})
	go func() {
		defer close(c.bellDone)
		var buf [64]byte
		for {
			n, err := c.bellRx.Read(buf[:])
			if n > 0 {
				c.rung(n)
			}
			if err != nil {
				return
			}
		}
	}()
}

// ring is one SPSC channel's view: control words plus data window.
type shmRing struct {
	ctl  []byte
	data []byte
}

// ringTo returns the ring inside file `owner` written by local rank
// `producer`.
func (c *ShmConduit) ring(owner, producer int) shmRing {
	off := shmHdrBytes + producer*(shmCtlBytes+c.ringBytes)
	f := c.files[owner]
	return shmRing{
		ctl:  f[off : off+shmCtlBytes],
		data: f[off+shmCtlBytes : off+shmCtlBytes+c.ringBytes],
	}
}

func (r shmRing) head() *uint64 { return (*uint64)(unsafe.Pointer(&r.ctl[0])) }
func (r shmRing) tail() *uint64 { return (*uint64)(unsafe.Pointer(&r.ctl[64])) }

// copyIn writes src into the ring data window at logical position pos,
// wrapping as needed.
func ringCopyIn(data []byte, pos uint64, src []byte) {
	i := pos % uint64(len(data))
	k := copy(data[i:], src)
	if k < len(src) {
		copy(data, src[k:])
	}
}

// ringCopyOut reads len(dst) bytes at logical position pos.
func ringCopyOut(dst, data []byte, pos uint64) {
	i := pos % uint64(len(data))
	k := copy(dst, data[i:])
	if k < len(dst) {
		copy(dst[k:], data)
	}
}

// Send delivers one active message to co-located rank `to`, fragmenting
// payloads larger than a quarter ring. While the destination ring is
// full it blocks in the injected wait, which keeps polling our own
// rings; because the consumer publishes head before dispatching each
// record, two ranks blocked sending to each other still drain.
func (c *ShmConduit) Send(to int, h uint16, arg uint64, payload []byte) {
	maxFrag := c.ringBytes / 4
	for {
		n := len(payload)
		more := n > maxFrag
		if more {
			n = maxFrag
		}
		if !c.push(to, h, arg, payload[:n], more) || !more {
			return
		}
		payload = payload[n:]
	}
}

// push writes one record and reports whether it did: it gives up only
// when the wait for room fails, which means the job is being torn down
// — the record is dropped like a frame to a closed endpoint, and the
// caller's own next wait reports the error.
func (c *ShmConduit) push(to int, h uint16, arg uint64, p []byte, more bool) bool {
	if to == c.me {
		panic("gasnet: shm self-send")
	}
	r := c.ring(to, c.me)
	rec := uint64(shmRecHdr + ((len(p) + shmAlignMask) &^ shmAlignMask))
	capacity := uint64(c.ringBytes)
	if capacity-(atomic.LoadUint64(r.tail())-atomic.LoadUint64(r.head())) < rec {
		// Full: the consumer is behind. Its Poll rings us when it has
		// made room (see there).
		if c.wait(func() bool {
			return capacity-(atomic.LoadUint64(r.tail())-atomic.LoadUint64(r.head())) >= rec
		}) != nil {
			return false
		}
	}
	tail := atomic.LoadUint64(r.tail())
	var hdr [shmRecHdr]byte
	ln := uint32(len(p))
	if more {
		ln |= shmMoreFlag
	}
	binary.LittleEndian.PutUint32(hdr[0:], ln)
	binary.LittleEndian.PutUint16(hdr[4:], h)
	binary.LittleEndian.PutUint64(hdr[8:], arg)
	ringCopyIn(r.data, tail, hdr[:])
	ringCopyIn(r.data, tail+shmRecHdr, p)
	// The tail store publishes the record: it is sequentially consistent
	// (Go sync/atomic), so the consumer's tail load orders after our data
	// writes.
	atomic.StoreUint64(r.tail(), tail+rec)
	c.ringIfArmed(to)
	c.txMsgs.Add(1)
	c.txBytes.Add(int64(len(p)))
	c.obsRing.Instant(obs.KShmTx, int32(to), uint32(len(p)), uint64(h))
	return true
}

// Poll drains every incoming ring, dispatching complete messages, and
// reports how many records it consumed. Head is published before each
// dispatch so a handler that blocks in Send never wedges its producer.
//
// A producer parked on a full ring needs at most half of it (a record
// is a quarter ring plus its header), so the ring was more than half
// full before the head store that makes its room. The tail loaded
// after that store is the parked producer's last (its tail store
// precedes its wake store, which precedes the head load that found no
// room, which precedes our head store), so "more than half full" is
// tested against the true fill and the consumer checks the producer's
// wake word whenever it could matter — and never in the common case of
// a nearly empty ring, where the producer is parked on something else
// and a bell would only wake it for nothing.
func (c *ShmConduit) Poll() int {
	n := 0
	capacity := uint64(c.ringBytes)
	for j := 0; j < c.n; j++ {
		if j == c.me {
			continue
		}
		r := c.ring(c.me, j)
		for {
			head := atomic.LoadUint64(r.head())
			tail := atomic.LoadUint64(r.tail())
			if head == tail {
				break
			}
			var hdr [shmRecHdr]byte
			ringCopyOut(hdr[:], r.data, head)
			ln := binary.LittleEndian.Uint32(hdr[0:])
			more := ln&shmMoreFlag != 0
			plen := int(ln &^ uint32(shmMoreFlag))
			h := binary.LittleEndian.Uint16(hdr[4:])
			arg := binary.LittleEndian.Uint64(hdr[8:])
			payload := make([]byte, plen)
			ringCopyOut(payload, r.data, head+shmRecHdr)
			rec := uint64(shmRecHdr + ((plen + shmAlignMask) &^ shmAlignMask))
			atomic.StoreUint64(r.head(), head+rec)
			if atomic.LoadUint64(r.tail())-head > capacity/2 {
				c.ringIfArmed(j)
			}
			n++
			if more {
				c.partial[j] = append(c.partial[j], payload...)
				continue
			}
			if part := c.partial[j]; part != nil {
				payload = append(part, payload...)
				c.partial[j] = nil
			}
			c.rxMsgs.Add(1)
			c.rxBytes.Add(int64(len(payload)))
			c.obsRing.Instant(obs.KShmRx, int32(j), uint32(len(payload)), uint64(h))
			fn := c.handlers[h]
			if fn == nil {
				panic(fmt.Sprintf("gasnet: shm message for unregistered handler %d", h))
			}
			fn(j, arg, payload)
		}
	}
	return n
}

// Counters reports shm-plane traffic (complete messages, payload bytes)
// and how often this rank ran out of poll budget and parked
// (shm_parks), rang a parked neighbour's doorbell (shm_bells_tx), was
// rung (shm_bells_rx: a call from a peer of this process, or a byte
// read off its FIFO) and rang one that was gone (shm_bells_lost).
func (c *ShmConduit) Counters() map[string]float64 {
	return map[string]float64{
		"shm_tx_msgs":    float64(c.txMsgs.Load()),
		"shm_rx_msgs":    float64(c.rxMsgs.Load()),
		"shm_tx_bytes":   float64(c.txBytes.Load()),
		"shm_rx_bytes":   float64(c.rxBytes.Load()),
		"shm_parks":      float64(c.parks.Load()),
		"shm_bells_tx":   float64(c.bellsTx.Load()),
		"shm_bells_rx":   float64(c.bellsRx.Load()),
		"shm_bells_lost": float64(c.bellsLost.Load()),
	}
}

// Close takes this rank out of the in-process bell table, unmaps every
// mapping and closes both ends of the FIFOs, returning once the reader
// goroutine (if any) has exited. The launcher owns the directory (and
// removes it after the job); Close only releases this process's views.
func (c *ShmConduit) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	shmNear.CompareAndDelete(ShmPath(c.dir, c.me), c)
	first := c.bellRx.Close()
	if c.bellDone != nil {
		<-c.bellDone
	}
	for j, fd := range c.bellTx {
		if fd >= 0 {
			c.bellTx[j] = -1
			syscall.Close(fd)
		}
	}
	for j, buf := range c.files {
		if buf == nil {
			continue
		}
		c.files[j] = nil
		if err := syscall.Munmap(buf); err != nil && first == nil {
			first = err
		}
	}
	return first
}
