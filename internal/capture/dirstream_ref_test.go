package capture

import (
	"slices"

	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
)

// refDirStream is the buffered reassembler the streaming dirStream
// replaced, kept verbatim (minus its checker hooks) as the reference the
// differential tests hold dirStream to. It copies every payload byte into
// buf and one taint flag per byte into taint, then cuts records off the
// front of buf after each push.
type refDirStream struct {
	synSeen bool
	nextSeq uint64
	ooo     map[uint64]oooChunk
	buf     []byte // reassembled record bytes; [off:] is still unparsed
	taint   []bool // parallel to buf: byte arrived via a retransmission
	off     int    // parsed prefix of buf/taint, reclaimed on append

	evs []RecordEvent // parse() scratch, reused per push
}

func newRefDirStream() *refDirStream {
	return &refDirStream{ooo: make(map[uint64]oooChunk)}
}

// push ingests a segment and returns any records completed by it.
func (d *refDirStream) push(seg *tcpsim.Segment) []RecordEvent {
	if seg.Flags.Has(tcpsim.FlagSYN) {
		d.synSeen = true
		d.nextSeq = seg.Seq + 1
		return nil
	}
	if !d.synSeen || len(seg.Payload) == 0 {
		return nil
	}
	d.ingest(seg.Seq, seg.Payload, seg.Retransmit)
	return d.parse()
}

func (d *refDirStream) ingest(seq uint64, payload []byte, tainted bool) {
	end := seq + uint64(len(payload))
	switch {
	case end <= d.nextSeq:
		return // pure duplicate of delivered bytes
	case seq <= d.nextSeq:
		fresh := payload[d.nextSeq-seq:]
		d.append(fresh, tainted)
		d.drain()
	default:
		if _, ok := d.ooo[seq]; !ok {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			d.ooo[seq] = oooChunk{data: cp, tainted: tainted}
		}
	}
}

func (d *refDirStream) append(fresh []byte, tainted bool) {
	// Reclaim the parsed prefix first: reslicing forward in parse() would
	// strand the consumed capacity and reallocate every buffer cycle.
	if d.off > 0 {
		n := copy(d.buf, d.buf[d.off:])
		d.buf = d.buf[:n]
		copy(d.taint, d.taint[d.off:])
		d.taint = d.taint[:n]
		d.off = 0
	}
	d.buf = append(d.buf, fresh...)
	// Bulk-extend the taint array instead of one append per byte; recycled
	// capacity may hold stale flags, so every new slot is set explicitly.
	old := len(d.taint)
	d.taint = slices.Grow(d.taint, len(fresh))[:old+len(fresh)]
	for i := old; i < len(d.taint); i++ {
		d.taint[i] = tainted
	}
	d.nextSeq += uint64(len(fresh))
}

func (d *refDirStream) drain() {
	// Apply stored chunks lowest-seq first. When one in-order fill makes
	// several overlapping out-of-order chunks applicable at once, the chunk
	// that supplies an overlapped byte decides its taint flag — so the
	// application order must not depend on map iteration order, or two
	// runs of the same trial can taint the same record differently and the
	// adversary's record-driven decisions diverge.
	for len(d.ooo) > 0 {
		var low uint64
		found := false
		for seq := range d.ooo {
			if !found || seq < low {
				low, found = seq, true
			}
		}
		if low > d.nextSeq {
			return // gap before the lowest chunk: nothing applicable
		}
		chunk := d.ooo[low]
		delete(d.ooo, low)
		if end := low + uint64(len(chunk.data)); end > d.nextSeq {
			d.append(chunk.data[d.nextSeq-low:], chunk.tainted)
		}
	}
}

// parse cuts complete TLS records off the front of buf. The returned slice
// is scratch reused by the next push; the caller consumes it synchronously.
func (d *refDirStream) parse() []RecordEvent {
	out := d.evs[:0]
	for {
		rest := d.buf[d.off:]
		hdr, ok := tlsrec.ParseHeader(rest)
		if !ok {
			break
		}
		total := tlsrec.HeaderSize + hdr.Length
		if len(rest) < total {
			break
		}
		plain := 0
		if hdr.Type == tlsrec.ContentApplicationData && hdr.Length >= tlsrec.SealOverhead {
			plain = hdr.Length - tlsrec.SealOverhead
		}
		tainted := false
		for _, tb := range d.taint[d.off : d.off+total] {
			if tb {
				tainted = true
				break
			}
		}
		out = append(out, RecordEvent{
			Type:     hdr.Type,
			WireLen:  total,
			PlainLen: plain,
			Tainted:  tainted,
		})
		d.off += total
	}
	d.evs = out
	return out
}
