package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"h2privacy/internal/netsim"
)

// ackEater drops client→server pure ACKs while armed: the data sender's
// RTO fires and rewinds, and the first acknowledgement it then hears is a
// high cumulative one for the whole pre-rewind flight — far above the
// rewound sndNxt.
type ackEater struct {
	from, until time.Duration
}

func (h *ackEater) Process(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
	seg, ok := pkt.Payload.(*Segment)
	if ok && len(seg.Payload) == 0 && pkt.Dir == netsim.ClientToServer &&
		now >= h.from && now < h.until {
		return netsim.Verdict{Drop: true}
	}
	return netsim.Verdict{}
}

// TestStaleAckAfterRTORewindIsAccepted is the regression test for the
// go-back-N deadlock: an RTO rewinds sndNxt to sndUna while an ACK for the
// pre-rewind flight is still in the network. That ACK arrives with
// ack > sndNxt; a sender that discards it (the old `ack <= sndNxt` bound)
// keeps retransmitting data the receiver already has, every re-ACK lands
// above the rewound sndNxt again, and both ends ride the RTO backoff to a
// MaxRetries abort. Accepting any ack up to maxSndNxt and fast-forwarding
// sndNxt lets the transfer complete without an abort.
func TestStaleAckAfterRTORewindIsAccepted(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	// Eat every ACK for the initial flight and for the first RTO
	// retransmission (MinRTO is 200ms): when the window lifts, the client's
	// next acknowledgement is cumulative for everything it received —
	// a stale high ACK landing on a freshly rewound sender.
	n.path.AddProcessor(&ackEater{from: 35 * time.Millisecond, until: 240 * time.Millisecond})
	n.pair.Open()
	data := make([]byte, 200_000)
	for i := range data {
		data[i] = byte(i * 17)
	}
	n.sched.After(30*time.Millisecond, func() { _ = n.pair.Server.Write(data) })
	n.sched.RunUntil(30 * time.Second)
	if err := n.pair.Server.Err(); err != nil {
		t.Fatalf("server aborted: %v (stale-ACK deadlock)", err)
	}
	if err := n.pair.Client.Err(); err != nil {
		t.Fatalf("client aborted: %v", err)
	}
	if !bytes.Equal(n.toCli.Bytes(), data) {
		t.Fatalf("transfer incomplete: client received %d of %d bytes", n.toCli.Len(), len(data))
	}
	if n.pair.Server.Stats().Retransmits() == 0 {
		t.Fatal("scenario never provoked a retransmission — the held-ACK window is not biting")
	}
}

// TestDrainOutOfOrderDeterministic pins the out-of-order drain order. When
// one in-order fill makes two overlapping buffered chunks contiguous at
// once, lowest-seq-first delivery keeps the onData call granularity — and
// therefore the byte stream's segmentation upstack — independent of map
// iteration order. The old map-range drain delivered the tail as either one
// 40-byte call or a 10+30 split depending on the run.
func TestDrainOutOfOrderDeterministic(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := &Conn{}
		var calls []int
		c.onData = func(p []byte) { calls = append(calls, len(p)) }
		bufferChunks(c, map[uint64][]byte{
			150: make([]byte, 100), // [150,250)
			200: make([]byte, 20),  // [200,220), nested in the above
		})
		c.rcvNxt = 210 // an in-order fill just advanced past both starts
		c.drainOutOfOrder()
		if len(calls) != 1 || calls[0] != 40 {
			t.Fatalf("iter %d: onData calls %v, want [40] (drain order leaked map order)", i, calls)
		}
		if c.rcvNxt != 250 || c.oooBytes != 0 || len(c.ooo) != 0 {
			t.Fatalf("iter %d: rcvNxt=%d oooBytes=%d left=%d", i, c.rcvNxt, c.oooBytes, len(c.ooo))
		}
	}
}

// TestRetransmitNeverSendsUnsentBytes pins retransmitFirstUnacked (fast
// retransmit, NewReno partial ACKs and the tail-loss probe) to bytes that
// were sent before. With 84 bytes in flight and more buffered behind them,
// it used to resend a full MSS from sndUna: bytes past maxSndNxt went out
// flagged as retransmissions, and trySend later sent them again unflagged
// (the checker's tcpsim/refresh-overlap rule).
func TestRetransmitNeverSendsUnsentBytes(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	n.pair.Open()
	n.sched.Run()
	c := n.pair.Server
	var sent []Segment
	out := c.out
	c.out = func(s *Segment) {
		sent = append(sent, *s)
		out(s)
	}
	c.cwnd = 84 // only the first 84 bytes fit the window
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	_ = c.Write(data)
	if flight := c.maxSndNxt - c.sndUna; flight != 84 {
		t.Fatalf("in flight after the write: %d bytes, want 84", flight)
	}
	c.retransmitFirstUnacked()
	for _, s := range sent {
		if end := s.Seq + uint64(len(s.Payload)); s.Retransmit && end > c.maxSndNxt {
			t.Fatalf("retransmission [%d,%d) reaches past maxSndNxt %d: never-sent bytes flagged as retransmitted",
				s.Seq, end, c.maxSndNxt)
		}
	}
	n.sched.RunUntil(10 * time.Second)
	if !bytes.Equal(n.toCli.Bytes(), data) {
		t.Fatalf("transfer corrupted: client received %d of %d bytes", n.toCli.Len(), len(data))
	}
}
