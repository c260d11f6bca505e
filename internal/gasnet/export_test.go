package gasnet

// ParkAlways takes the poll phase out of every wait of h, and the timed
// re-poll out of its park, so that a test drives each wait through the
// arm / re-poll / block path and only a doorbell can end it.
func (h *HierConduit) ParkAlways() {
	h.polls = 0
	h.repoll = 0
	h.block = h.wire.park
}

// BellReaderDone is closed once the doorbell reader that Listen started
// has exited.
func (c *ShmConduit) BellReaderDone() <-chan struct{} { return c.bellDone }
