package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/simtime"
)

// TestRACKWindowSuppressesSpuriousRetransmit: micro-reordering (well under
// srtt/4) must not trigger fast retransmit.
func TestRACKWindowSuppressesSpuriousRetransmit(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(7)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: netsim.LinkConfig{
		BandwidthBps: 1e9,
		PropDelay:    10 * time.Millisecond, // srtt ≈ 20ms, window ≈ 5ms
	}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	// Delay every 50th data packet by 1ms: reordering far below the
	// RACK window.
	n := 0
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		if len(seg.Payload) > 0 {
			n++
			if n%50 == 0 {
				return netsim.Verdict{ExtraDelay: time.Millisecond}
			}
		}
		return netsim.Verdict{}
	}))
	pair, err := NewPair(sched, rng, path, Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	pair.Client.OnData(func(p []byte) { got.Write(p) })
	pair.Open()
	data := make([]byte, 500_000)
	sched.After(0, func() { _ = pair.Server.Write(data) })
	sched.Run()
	if got.Len() != len(data) {
		t.Fatalf("received %d/%d", got.Len(), len(data))
	}
	if fr := pair.Server.Stats().FastRetransmits; fr != 0 {
		t.Fatalf("micro-reordering caused %d spurious fast retransmits", fr)
	}
}

// TestRACKWindowStillCatchesRealLoss: a genuinely lost packet must still
// be recovered by fast retransmit (not only RTO).
func TestRACKWindowStillCatchesRealLoss(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(9)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: netsim.LinkConfig{
		BandwidthBps: 1e9,
		PropDelay:    10 * time.Millisecond,
	}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		if !dropped && len(seg.Payload) > 0 && seg.Seq > 0 && now > 30*time.Millisecond && !seg.Retransmit {
			dropped = true
			return netsim.Verdict{Drop: true}
		}
		return netsim.Verdict{}
	}))
	pair, err := NewPair(sched, rng, path, Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	pair.Client.OnData(func(p []byte) { got.Write(p) })
	pair.Open()
	data := make([]byte, 400_000)
	sched.After(0, func() { _ = pair.Server.Write(data) })
	sched.Run()
	if got.Len() != len(data) {
		t.Fatalf("received %d/%d", got.Len(), len(data))
	}
	st := pair.Server.Stats()
	if st.FastRetransmits == 0 {
		t.Fatalf("real loss recovered without fast retransmit: %+v", st)
	}
	if st.RTOExpiries != 0 {
		t.Fatalf("loss needed an RTO despite dup-ACKs: %+v", st)
	}
}

// TestTLPRecoversTailLoss: when the LAST segments of a burst are lost,
// no dup-ACKs ever arrive; the tail-loss probe must recover well before
// the RTO would.
func TestTLPRecoversTailLoss(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(11)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: netsim.LinkConfig{
		BandwidthBps: 1e9,
		PropDelay:    5 * time.Millisecond,
	}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the first transmission of the burst's tail bytes (relative
	// offset ≥ 58000); sequence numbers start at a random ISS.
	var base uint64
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		if len(seg.Payload) == 0 {
			return netsim.Verdict{}
		}
		if base == 0 {
			base = seg.Seq
		}
		rel := seg.Seq - base + uint64(len(seg.Payload))
		if !seg.Retransmit && rel >= 58_000 {
			return netsim.Verdict{Drop: true}
		}
		return netsim.Verdict{}
	}))
	pair, err := NewPair(sched, rng, path, Config{MinRTO: 800 * time.Millisecond}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var doneAt time.Duration
	pair.Client.OnData(func(p []byte) {
		got.Write(p)
		doneAt = sched.Now()
	})
	pair.Open()
	data := make([]byte, 60_000)
	sched.After(0, func() { _ = pair.Server.Write(data) })
	sched.Run()
	if got.Len() != len(data) {
		t.Fatalf("received %d/%d", got.Len(), len(data))
	}
	if pair.Server.Stats().TLPProbes == 0 {
		t.Fatalf("tail loss recovered without a probe: %+v", pair.Server.Stats())
	}
	// With MinRTO 800ms, an RTO-only recovery would finish after ~850ms;
	// the probe should finish far sooner.
	if doneAt > 500*time.Millisecond {
		t.Fatalf("tail recovery took %v — looks like an RTO, not a TLP", doneAt)
	}
}

// TestRTORecoveryAfterIdleBackoff: forward progress must collapse the
// backed-off RTO so a later, isolated loss recovers promptly.
func TestRTOBackoffCollapsesOnProgress(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(13)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: netsim.LinkConfig{
		BandwidthBps: 1e9,
		PropDelay:    5 * time.Millisecond,
	}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	// Total blackout between 50ms and 1.5s (payload only).
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		drop := len(seg.Payload) > 0 && now > 50*time.Millisecond && now < 1500*time.Millisecond
		return netsim.Verdict{Drop: drop}
	}))
	pair, err := NewPair(sched, rng, path, Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	pair.Client.OnData(func(p []byte) { got.Write(p) })
	pair.Open()
	sched.After(0, func() { _ = pair.Server.Write(make([]byte, 300_000)) })
	sched.RunUntil(20 * time.Second)
	if got.Len() != 300_000 {
		t.Fatalf("received %d/300000", got.Len())
	}
	// After the blackout, the RTO must have been refreshed toward the
	// estimator value, not stuck at MaxRTO.
	if rto := pair.Server.RTO(); rto > time.Second {
		t.Fatalf("RTO stuck backed off at %v after recovery", rto)
	}
}

// TestDisableRACKWindow restores immediate fast retransmit.
func TestDisableRACKWindow(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(7)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: netsim.LinkConfig{
		BandwidthBps: 1e9,
		PropDelay:    10 * time.Millisecond,
	}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		if len(seg.Payload) > 0 {
			n++
			if n%50 == 0 {
				return netsim.Verdict{ExtraDelay: time.Millisecond}
			}
		}
		return netsim.Verdict{}
	}))
	pair, err := NewPair(sched, rng, path, Config{DisableRACKWindow: true}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	pair.Client.OnData(func([]byte) {})
	pair.Open()
	sched.After(0, func() { _ = pair.Server.Write(make([]byte, 500_000)) })
	sched.Run()
	if fr := pair.Server.Stats().FastRetransmits; fr == 0 {
		t.Fatal("legacy mode suppressed spurious retransmits too")
	}
}

func TestDelayedAckReducesAckTraffic(t *testing.T) {
	// Compare the server's received segment counts (client ACKs).
	count := func(delayed bool) int {
		sched := simtime.NewScheduler()
		rng := simtime.NewRand(21)
		path, _ := netsim.NewPath(sched, rng, netsim.PathConfig{Link: netsim.LinkConfig{
			BandwidthBps: 1e9, PropDelay: 5 * time.Millisecond,
		}}, instr.Bundle{})
		pair, _ := NewPair(sched, rng, path, Config{DelayedAck: delayed}, instr.Bundle{})
		var got bytes.Buffer
		pair.Client.OnData(func(p []byte) { got.Write(p) })
		pair.Open()
		sched.After(0, func() { _ = pair.Server.Write(make([]byte, 300_000)) })
		sched.Run()
		if got.Len() != 300_000 {
			t.Fatalf("received %d (delayed=%t)", got.Len(), delayed)
		}
		return pair.Server.Stats().SegmentsReceived
	}
	immediate := count(false)
	delayed := count(true)
	if delayed >= immediate {
		t.Fatalf("delayed ACKs did not reduce ACK traffic: %d vs %d", delayed, immediate)
	}
}
