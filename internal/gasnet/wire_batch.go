package gasnet

import (
	"upcxx/internal/frames"
	"upcxx/internal/transport"
)

// ---- Wire conduit: aggregation batch plane ----

// SetBatchHandler installs the batch plane's hooks (see
// BatchConduit.SetBatchHandler): all three run on this rank's SPMD
// goroutine, inside Poll or a blocking call's wait loop. An incoming
// hBatch frame is applied, then its hReply ack is queued carrying what
// reply hands over, then after runs — so the flush after makes ships
// the ack and the batches apply generated in one vectored write, ack
// first. An ack that carries a reply is applied with the same apply
// before the batch's onAck. internal/core installs the internal/agg
// decoder, agg.TakeReply and its cut-through flush here.
func (c *WireConduit) SetBatchHandler(apply func(from int, payload []byte) error, reply func(to int) []byte, after func()) {
	c.batchApply, c.batchReply, c.batchAfter = apply, reply, after
}

// SendBatch ships one encoded aggregation batch to rank `to` without
// blocking. Once the target has applied every operation in it, its
// acknowledgement arrives; the reply it may carry is applied, then
// onAck and the after hook run, on this rank's goroutine. This is the
// transport half of the aggregation layer: many small operations
// travel as one frame and are acknowledged by one reply, instead of a
// frame pair each.
// Aggregation batches to a dead rank complete as LOST rather than
// failing: the ack fires (so events and Finish scopes drain) —
// replication above the batch plane is what preserves the data. This is the complete-as-lost semantics the
// replicated DHT's write fan-out relies on.
func (c *WireConduit) SendBatch(to int, payload []byte, onAck func()) error {
	x := c.newReq(hBatch, to, 1, 0, nil)
	x.onAck = onAck
	if c.isDead(to) {
		frames.Put(payload) // ownership arrived with the call; the frame never ships
		c.complete(x, nil)
		return nil
	}
	// The batch buffer comes from the aggregation encoder's frame pool
	// and is owned by this call: the transport recycles it once the
	// frame ships (or on a failed send).
	err := c.sendOwned(transport.Message{
		To: int32(to), Handler: hBatch, Arg: x.tok, Payload: payload,
	})
	if err != nil {
		if c.noteSendError(to, err) != nil {
			c.complete(x, nil)
			return nil
		}
		c.free(x)
		return err
	}
	c.acks[x.tok] = x
	x.n, x.left = 1, 1
	// Ship eagerly: the batch is itself the coalescing unit, so parking
	// it in the transport's tx queue until the next progress call would
	// re-batch the already-batched and charge every op a poll-cadence
	// latency — exactly what a size-triggered flush of a 1-op adaptive
	// batch must not pay.
	c.flush()
	return nil
}

func (c *WireConduit) onBatch(m transport.Message) {
	from := int(m.From)
	if err := c.batchApply(from, m.Payload); err != nil {
		c.severMalformed(m, err)
		return
	}
	if rep := c.batchReply(from); rep != nil {
		// A pooled buffer, owned from here on: the transport recycles it.
		_ = c.sendOwned(transport.Message{To: m.From, Handler: hReply, Arg: m.Arg, Payload: rep})
	} else {
		c.reply(m, nil)
	}
	c.batchAfter()
}
