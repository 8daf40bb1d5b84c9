package tcpsim

import (
	"fmt"
	"time"

	"h2privacy/internal/trace"
)

// traceCwnd records a congestion-window change with its cause.
func (c *Conn) traceCwnd(why string) {
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerTCP, "cwnd",
			trace.Str("conn", c.name), trace.Num("cwnd", int64(c.cwnd)),
			trace.Num("ssthresh", int64(c.ssthresh)), trace.Str("why", why))
	}
}

// trySend pushes as much buffered data as the send window allows, then the
// FIN if one is queued and all data is out.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateSynRcvd {
		return
	}
	wnd := c.cwnd
	if c.peerWnd < wnd {
		wnd = c.peerWnd
	}
	for {
		inFlight := int(c.sndNxt - c.sndUna)
		if c.finSent {
			inFlight-- // the FIN occupies one sequence number but no window
		}
		if inFlight >= wnd {
			break
		}
		offset := int(c.sndNxt - c.sndUna)
		if c.finSent {
			break // nothing may follow a FIN
		}
		unacked := c.sendBuf[c.sendOff:]
		if offset >= len(unacked) {
			break
		}
		n := len(unacked) - offset
		if n > c.cfg.MSS {
			n = c.cfg.MSS
		}
		if room := wnd - inFlight; n > room {
			n = room
		}
		if n <= 0 {
			break
		}
		payload := c.arena.Bytes(n)
		copy(payload, unacked[offset:offset+n])
		seg := c.makeSeg(FlagACK, c.sndNxt, c.rcvNxt, c.advertisedWindow(), payload, false)
		if seg.Seq < c.maxSndNxt {
			seg.Retransmit = true
			c.stats.TimeoutRetxSegs++
		} else {
			c.stats.BytesSent += int64(n)
			// Start an RTT sample on the first eligible transmission.
			if !c.rttPending {
				c.rttPending = true
				c.rttSeq = c.sndNxt + uint64(n)
				c.rttSentAt = c.sched.Now()
			}
		}
		c.sndNxt += uint64(n)
		if c.sndNxt > c.maxSndNxt {
			c.maxSndNxt = c.sndNxt
		}
		c.stats.SegmentsSent++
		c.transmit(seg)
		c.armRTO()
	}
	// Send the FIN once the buffer is fully transmitted.
	if c.finQueued && !c.finSent && int(c.sndNxt-c.sndUna) == c.Buffered() {
		c.finSeq = c.sndNxt
		c.finSent = true
		c.sndNxt++
		if c.sndNxt > c.maxSndNxt {
			c.maxSndNxt = c.sndNxt
		}
		c.transmit(c.makeSeg(FlagACK|FlagFIN, c.finSeq, c.rcvNxt, c.advertisedWindow(), nil, false))
		c.armRTO()
	}
}

// legacyStaleAck reverts processAck to its pre-fix acceptance bound
// (sndNxt instead of maxSndNxt), reintroducing the go-back-N stale-ACK
// deadlock that PR 4 fixed. It exists solely so the property harness can
// prove it rediscovers the bug; never set it outside tests. Toggle only
// while no trials are running (it is an unsynchronized global).
var legacyStaleAck bool

// SetLegacyStaleAck enables or disables the deliberately re-broken
// processAck behaviour. Test hook — see legacyStaleAck.
func SetLegacyStaleAck(on bool) { legacyStaleAck = on }

// processAck handles the acknowledgement field of an incoming segment:
// window advance, RTT sampling, congestion control, duplicate-ACK fast
// retransmit (RFC 5681) with NewReno-style recovery.
func (c *Conn) processAck(seg *Segment) {
	if seg.Window > 0 {
		c.peerWnd = seg.Window
	}
	ack := seg.Ack
	ackBound := c.maxSndNxt
	if legacyStaleAck {
		ackBound = c.sndNxt
	}
	switch {
	case ack > c.sndUna && ack <= ackBound:
		// Bounded by the highest sequence ever sent, not sndNxt: after an
		// RTO's go-back-N rewind an ACK for the pre-rewind flight is still
		// in the network, and ignoring it deadlocks both ends — the sender
		// keeps retransmitting data the receiver already has, and every
		// re-ACK lands above the rewound sndNxt forever.
		if ack > c.sndNxt {
			c.sndNxt = ack
		}
		acked := int(ack - c.sndUna)
		dataAcked := acked
		if c.finSent && ack > c.finSeq {
			dataAcked--
			c.finAcked = true
		}
		if buffered := c.Buffered(); dataAcked > buffered {
			dataAcked = buffered
		}
		c.sendOff += dataAcked
		if c.sendOff == len(c.sendBuf) {
			c.retireSendBuf()
		}
		c.sndUna = ack
		c.retries = 0
		c.dupAcks = 0

		if c.rttPending && ack >= c.rttSeq {
			c.sampleRTT(c.sched.Now() - c.rttSentAt)
			c.rttPending = false
		} else if c.srtt > 0 {
			// Forward progress collapses any exponential backoff back to
			// the estimator-based timeout (Linux recovers RTO via
			// timestamps even across retransmissions; a stack that keeps
			// an 8 s RTO after the loss episode ends would stall for
			// seconds on the next hole).
			c.refreshRTO()
		}

		if c.inRecovery {
			if ack >= c.recoverPt {
				// Full recovery: deflate to ssthresh.
				c.inRecovery = false
				c.cwnd = c.ssthresh
				if c.tr.Enabled() {
					c.tr.Emit(trace.LayerTCP, "recovery-exit",
						trace.Str("conn", c.name), trace.Num("cwnd", int64(c.cwnd)))
				}
				c.traceCwnd("recovery-exit")
			} else {
				// Partial ACK: the next hole is lost too; retransmit it
				// immediately without leaving recovery (NewReno).
				c.retransmitFirstUnacked()
			}
		} else {
			if c.cwnd < c.ssthresh {
				// Slow start with byte counting.
				inc := acked
				if inc > c.cfg.MSS {
					inc = c.cfg.MSS
				}
				c.cwnd += inc
				c.traceCwnd("slow-start")
			} else {
				// Congestion avoidance: ~one MSS per RTT.
				inc := c.cfg.MSS * c.cfg.MSS / c.cwnd
				if inc < 1 {
					inc = 1
				}
				c.cwnd += inc
				c.traceCwnd("cong-avoid")
			}
		}

		if c.sndUna == c.sndNxt {
			c.disarmRTO()
			c.disarmPTO()
		} else {
			c.armRTOReset()
			c.armPTO()
		}
		c.maybeFinishClose()
		c.trySend()
		if dataAcked > 0 && c.onDrain != nil {
			c.onDrain()
		}

	case ack == c.sndUna:
		// RFC 5681 duplicate ACK: no data, no SYN/FIN, with outstanding
		// data. (We deliberately skip the "window unchanged" clause: our
		// receiver shrinks its advertised window as out-of-order bytes
		// accumulate, which would otherwise mask genuine dup-ACKs.)
		if len(seg.Payload) == 0 && !seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagFIN) && c.sndNxt > c.sndUna {
			c.dupAcks++
			c.stats.DupAcksReceived++
			switch {
			case c.dupAcks == c.cfg.DupAckThreshold:
				c.armFastRetransmit()
			case c.dupAcks > c.cfg.DupAckThreshold && c.inRecovery:
				// Inflate during recovery: each further dup-ACK signals a
				// departed segment.
				c.cwnd += c.cfg.MSS
				c.traceCwnd("dupack-inflate")
				c.trySend()
			}
		}
	default:
		// Stale ACK (below sndUna) or acking unsent data: ignore.
	}
}

// armFastRetransmit fires fast retransmit either immediately or — with
// the RACK-style reordering window — after srtt/4, cancelled if the
// cumulative ACK advances in the meantime (the "hole" was reordering, not
// loss).
func (c *Conn) armFastRetransmit() {
	if c.cfg.DisableRACKWindow || c.srtt == 0 {
		c.fastRetransmit()
		return
	}
	if c.rackTimer.Pending() {
		return // already armed
	}
	window := c.srtt / 4
	if window < time.Millisecond {
		window = time.Millisecond
	}
	if window > 20*time.Millisecond {
		window = 20 * time.Millisecond
	}
	c.rackHole = c.sndUna
	c.rackTimer.Reset(c.sched.Now() + window)
}

// onRack fires the RACK reordering-window timer; rackHole holds the
// sndUna snapshot taken at arm time.
func (c *Conn) onRack() {
	if c.state != StateEstablished || c.sndUna != c.rackHole || c.dupAcks < c.cfg.DupAckThreshold {
		return // the hole filled itself: reordering, not loss
	}
	c.fastRetransmit()
}

// fastRetransmit resends the first unacknowledged segment and enters fast
// recovery.
func (c *Conn) fastRetransmit() {
	if int(c.sndNxt-c.sndUna) == 0 {
		return
	}
	flight := int(c.sndNxt - c.sndUna)
	c.ssthresh = flight / 2
	if min := 2 * c.cfg.MSS; c.ssthresh < min {
		c.ssthresh = min
	}
	c.stats.FastRetransmits++
	c.rttPending = false // Karn: retransmission poisons the sample
	c.retransmitFirstUnacked()
	c.cwnd = c.ssthresh + c.cfg.DupAckThreshold*c.cfg.MSS
	c.inRecovery = true
	c.recoverPt = c.sndNxt
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerTCP, "recovery-enter",
			trace.Str("conn", c.name), trace.Num("cwnd", int64(c.cwnd)),
			trace.Num("ssthresh", int64(c.ssthresh)), trace.Num("flight", int64(flight)))
	}
	c.traceCwnd("fast-retransmit")
}

// retransmitFirstUnacked re-sends up to one MSS of already-sent bytes (or
// the FIN) starting at sndUna.
func (c *Conn) retransmitFirstUnacked() {
	if c.finSent && c.sndUna == c.finSeq {
		c.transmit(c.makeSeg(FlagACK|FlagFIN, c.finSeq, c.rcvNxt, c.advertisedWindow(), nil, true))
		c.armRTOReset()
		return
	}
	// Only bytes sent before are retransmissions: buffered bytes past
	// maxSndNxt go out, unflagged, through trySend.
	n := min(c.Buffered(), c.cfg.MSS, int(c.maxSndNxt-c.sndUna))
	if n <= 0 {
		return
	}
	payload := c.arena.Bytes(n)
	copy(payload, c.sendBuf[c.sendOff:c.sendOff+n])
	c.stats.SegmentsSent++
	c.transmit(c.makeSeg(FlagACK, c.sndUna, c.rcvNxt, c.advertisedWindow(), payload, true))
	c.armRTOReset()
}

// onRTO fires when the retransmission timer expires: exponential backoff,
// collapse cwnd, and go-back-N from sndUna. After MaxRetries consecutive
// expiries the connection is declared broken — the paper's "broken
// connection" outcome at 1 Mbps (§IV-C) and under excessive jitter (§V).
func (c *Conn) onRTO() {
	c.disarmPTO()
	c.rackTimer.Stop()
	c.stats.RTOExpiries++
	c.retries++
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerTCP, "rto",
			trace.Str("conn", c.name), trace.Num("retries", int64(c.retries)),
			trace.Dur("rto", c.rto), trace.Num("flight", int64(c.sndNxt-c.sndUna)))
	}
	if c.retries > c.cfg.MaxRetries {
		c.fail(fmt.Errorf("tcpsim: %s: %d consecutive retransmission timeouts", c.name, c.retries))
		return
	}
	c.rto *= 2
	if c.rto > c.cfg.MaxRTO {
		c.rto = c.cfg.MaxRTO
	}
	c.rttPending = false
	c.dupAcks = 0
	c.inRecovery = false

	switch c.state {
	case StateSynSent:
		c.stats.SegmentsSent++
		c.transmit(c.makeSeg(FlagSYN, c.iss, 0, c.advertisedWindow(), nil, true))
		c.armRTO()
	case StateSynRcvd:
		c.stats.SegmentsSent++
		c.transmit(c.makeSeg(FlagSYN|FlagACK, c.iss, c.rcvNxt, c.advertisedWindow(), nil, true))
		c.armRTO()
	case StateEstablished:
		flight := int(c.sndNxt - c.sndUna)
		c.ssthresh = flight / 2
		if min := 2 * c.cfg.MSS; c.ssthresh < min {
			c.ssthresh = min
		}
		c.cwnd = c.cfg.MSS
		c.traceCwnd("rto")
		// Go-back-N: rewind and let trySend re-emit (marked Retransmit).
		if c.ck.Enabled() {
			c.ck.TCPRewind(c.name, c.sndNxt, c.sndUna)
		}
		c.sndNxt = c.sndUna
		if c.finSent && c.finSeq >= c.sndUna {
			c.finSent = false
		}
		c.trySend()
		c.armRTO() // even if nothing was sent (zero peer window)
	default:
	}
}

func (c *Conn) sampleRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerTCP, "srtt",
			trace.Str("conn", c.name), trace.Dur("sample", sample), trace.Dur("srtt", c.srtt))
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.refreshRTO()
}

// refreshRTO derives the timeout from the current estimator state.
func (c *Conn) refreshRTO() {
	rto := c.srtt + 4*c.rttvar
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	c.rto = rto
}

// armRTO starts the retransmission timer if it is not already running.
func (c *Conn) armRTO() {
	if c.rtoTimer.Pending() {
		return
	}
	c.rtoTimer.Reset(c.sched.Now() + c.rto)
	c.armPTO()
}

// armPTO (re)starts the tail-loss probe: if no acknowledgement arrives for
// ~2×SRTT while data is outstanding, one segment is probed without waiting
// out a backed-off RTO (RFC 8985 §7.2). The probe is what lets a sender
// recover promptly the instant a loss episode — like the adversary's §IV-D
// drop window — ends, instead of idling into a seconds-long RTO.
func (c *Conn) armPTO() {
	if c.cfg.DisableRACKWindow || c.srtt == 0 {
		return
	}
	pto := 2 * c.srtt
	if min := 10 * time.Millisecond; pto < min {
		pto = min
	}
	if pto >= c.rto {
		c.disarmPTO()
		return // the RTO fires first anyway
	}
	c.ptoTimer.Reset(c.sched.Now() + pto)
}

// onPTO fires the tail-loss probe timer.
func (c *Conn) onPTO() {
	if c.state != StateEstablished || c.sndNxt == c.sndUna {
		return
	}
	c.stats.TLPProbes++
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerTCP, "tlp",
			trace.Str("conn", c.name), trace.Num("flight", int64(c.sndNxt-c.sndUna)))
	}
	c.rttPending = false // Karn: the probe poisons pending samples
	c.retransmitFirstUnacked()
	// No backoff, no cwnd collapse: the RTO remains armed as the
	// backstop; the next ACK re-arms the probe.
}

func (c *Conn) disarmPTO() { c.ptoTimer.Stop() }

// armRTOReset restarts the timer (used when the window advances).
func (c *Conn) armRTOReset() { c.rtoTimer.Reset(c.sched.Now() + c.rto) }

func (c *Conn) disarmRTO() { c.rtoTimer.Stop() }

// maybeFinishClose transitions to Closed once both sides' FINs are done:
// ours acknowledged and the peer's received.
func (c *Conn) maybeFinishClose() {
	if c.finAcked && c.eofSent {
		c.disarmRTO()
		c.setState(StateClosed)
	}
}
