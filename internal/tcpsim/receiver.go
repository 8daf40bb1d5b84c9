package tcpsim

import (
	"slices"
	"sort"
)

// processData handles the payload and FIN of an incoming segment: in-order
// delivery to the application, out-of-order buffering, duplicate detection,
// and the immediate-ACK behaviour that produces the dup-ACK signal the
// sender's fast retransmit (and hence the paper's §IV-B retransmission
// storm) depends on.
func (c *Conn) processData(seg *Segment) {
	seq := seg.Seq
	end := seq + uint64(len(seg.Payload))
	if seg.Flags.Has(FlagFIN) {
		c.hasPeerFin = true
		c.peerFinSeq = end // FIN comes after any payload in the segment
	}

	switch {
	case len(seg.Payload) == 0:
		// FIN-only (or bare) segment; fall through to FIN handling.
	case end <= c.rcvNxt:
		// Entirely old data: a retransmission of something we already
		// have. Re-ACK so the sender can advance.
		c.stats.DuplicateSegs++
		c.sendAck(true)
		return
	case seq <= c.rcvNxt:
		// In-order (possibly overlapping the front). Deliver the new tail.
		fresh := seg.Payload[c.rcvNxt-seq:]
		c.deliverInOrder(fresh)
		c.drainOutOfOrder()
		c.sendAckMaybeDelayed()
	default:
		// Future data: buffer and emit a duplicate ACK for the hole.
		c.stats.OutOfOrderSegs++
		if c.oooBytes+len(seg.Payload) <= c.cfg.RecvWindow {
			i := sort.Search(len(c.ooo), func(i int) bool { return c.ooo[i].seq >= seq })
			if i == len(c.ooo) || c.ooo[i].seq != seq {
				// Rented from the arena (plain make without one) and
				// returned by drainOutOfOrder once delivered or superseded.
				buf := c.arena.Bytes(len(seg.Payload))
				copy(buf, seg.Payload)
				c.ooo = slices.Insert(c.ooo, i, oooChunk{seq: seq, buf: buf})
				c.oooBytes += len(buf)
			}
		}
		c.sendAck(true)
		return
	}

	// FIN processing: consume it only when all preceding data is in.
	if c.hasPeerFin && !c.eofSent && c.rcvNxt == c.peerFinSeq {
		c.rcvNxt++
		c.eofSent = true
		c.sendAck(false)
		if c.onEOF != nil {
			c.onEOF()
		}
		c.maybeFinishClose()
	}
}

func (c *Conn) deliverInOrder(p []byte) {
	if len(p) == 0 {
		return
	}
	c.rcvNxt += uint64(len(p))
	c.stats.BytesDelivered += int64(len(p))
	if c.ck.Enabled() {
		c.ck.TCPDeliver(c.name, c.rcvNxt)
	}
	if c.onData != nil {
		c.onData(p)
	}
}

// oooChunk is one buffered out-of-order segment payload.
type oooChunk struct {
	seq uint64
	buf []byte
}

// drainOutOfOrder delivers any buffered segments now contiguous with
// rcvNxt. Segment boundaries can shift across go-back-N retransmissions,
// so partial overlaps are trimmed rather than assumed away.
func (c *Conn) drainOutOfOrder() {
	// Apply buffered chunks lowest-seq first. The delivered byte stream is
	// the same in any order, but the per-call granularity of onData is not:
	// when overlapping chunks become contiguous together, whichever is
	// applied first decides how the tail is split, the application layer
	// flushes per call, and TCP segment boundaries shift — so the buffer
	// is kept sorted by seq rather than drained in map iteration order,
	// which would break same-seed byte-identity across runs.
	n := 0
	for ; n < len(c.ooo) && c.ooo[n].seq <= c.rcvNxt; n++ {
		ch := c.ooo[n]
		c.oooBytes -= len(ch.buf)
		if end := ch.seq + uint64(len(ch.buf)); end > c.rcvNxt {
			// Contiguous (possibly overlapping the front): deliver the tail.
			c.deliverInOrder(ch.buf[c.rcvNxt-ch.seq:])
		}
		// onData consumers copy synchronously, so the chunk can go home.
		c.arena.Put(ch.buf)
	}
	c.ooo = slices.Delete(c.ooo, 0, n)
}
