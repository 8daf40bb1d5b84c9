package check

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// violations returns the rules fired on c, in order.
func rules(c *Checker) []string {
	var out []string
	for _, v := range c.Violations() {
		out = append(out, v.Layer+"/"+v.Rule)
	}
	return out
}

func wantRules(t *testing.T, c *Checker, want ...string) {
	t.Helper()
	got := rules(c)
	if len(got) != len(want) {
		t.Fatalf("got rules %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rule %d: got %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestNilCheckerHooksAreNoOps(t *testing.T) {
	var c *Checker
	if c.Enabled() {
		t.Fatal("nil checker reports enabled")
	}
	// Every hook must be callable on the nil receiver.
	c.SetClock(nil)
	c.Concurrent()
	c.TCPRegister("x", 0)
	c.TCPPeers("a", "b")
	c.TCPSegment("x", 0, 1, false)
	c.TCPAck("x", 1, 1)
	c.TCPDeliver("x", 1)
	c.TCPRewind("x", 2, 1)
	c.H2Register("x", true, 65535)
	c.H2FrameSent("x", 0, 1, 10, 0, 0)
	c.H2FrameRecv("x", 0, 1, 10, 0, 0)
	c.H2DataSent("x", 1, 10)
	c.H2PeerInitialWindow("x", 65535)
	c.H2AppData("x", 1)
	c.HpackEncoded("x", 0)
	c.HpackDecoded("x", 0)
	c.LinkOffered(0, 100)
	c.LinkDropped(0, 100, DropLoss)
	c.LinkForwarded(0, 100, false)
	c.LinkDelivered(0, 100)
	c.LinkStatsFinal(0, 0, 0, 0, 0, 0, 0, 0, 0)
	c.SchedulerStep(time.Second)
	c.CaptureAppend(0, 1, 0, 5, 1)
	c.CaptureRecord(0, 1, 0)
	if n := c.Finalize(); n != 0 {
		t.Fatalf("nil Finalize = %d", n)
	}
}

func TestTCPSequenceRules(t *testing.T) {
	c := New(1, 0, nil)
	c.TCPRegister("client", 100)
	c.TCPRegister("server", 500)
	c.TCPPeers("client", "server")

	// In-order fresh sends extend the high-water mark.
	c.TCPSegment("client", 100, 200, false)
	c.TCPSegment("client", 200, 300, false)
	// Retransmit below the mark: fine.
	c.TCPSegment("client", 100, 200, true)
	wantRules(t, c)

	// A fresh segment above the mark leaves a gap.
	c.TCPSegment("client", 400, 500, false)
	wantRules(t, c, "tcpsim/seq-gap")

	// A non-retransmit overlapping already-sent space re-sends bytes.
	c2 := New(1, 0, nil)
	c2.TCPRegister("client", 0)
	c2.TCPSegment("client", 0, 100, false)
	c2.TCPSegment("client", 50, 100, false)
	wantRules(t, c2, "tcpsim/refresh-overlap")
}

func TestTCPAckRules(t *testing.T) {
	c := New(1, 0, nil)
	c.TCPRegister("client", 0)
	c.TCPSegment("client", 0, 1000, false)

	// ACK beyond anything sent.
	c.TCPAck("client", 2000, 0)
	wantRules(t, c, "tcpsim/ack-beyond-sent")

	// Valid ACK ignored by the endpoint (sndUna did not advance): the
	// legacy stale-ACK signature.
	c2 := New(1, 0, nil)
	c2.TCPRegister("client", 0)
	c2.TCPSegment("client", 0, 1000, false)
	c2.TCPAck("client", 600, 200)
	wantRules(t, c2, "tcpsim/ignored-ack")

	// sndUna moving backwards.
	c3 := New(1, 0, nil)
	c3.TCPRegister("client", 0)
	c3.TCPSegment("client", 0, 1000, false)
	c3.TCPAck("client", 600, 600)
	c3.TCPAck("client", 600, 400)
	// The regressed sndUna also makes the repeated ACK look ignored.
	wantRules(t, c3, "tcpsim/ignored-ack", "tcpsim/snduna-regress")
}

func TestTCPDeliverAndRewindRules(t *testing.T) {
	c := New(1, 0, nil)
	c.TCPRegister("client", 0)
	c.TCPRegister("server", 0)
	c.TCPPeers("client", "server")
	c.TCPSegment("client", 0, 1000, false)

	// The server delivering bytes the client actually sent: fine.
	c.TCPDeliver("server", 500)
	// Delivering beyond what the peer ever sent.
	c.TCPDeliver("server", 5000)
	wantRules(t, c, "tcpsim/deliver-unsent")

	// rcvNxt going backwards.
	c2 := New(1, 0, nil)
	c2.TCPRegister("server", 0)
	c2.TCPDeliver("server", 500)
	c2.TCPDeliver("server", 400)
	wantRules(t, c2, "tcpsim/rcvnxt-regress")

	// A "rewind" that moves sndNxt forward is not a rewind.
	c3 := New(1, 0, nil)
	c3.TCPRegister("client", 0)
	c3.TCPRewind("client", 100, 200)
	wantRules(t, c3, "tcpsim/rewind-forward")
}

func TestH2StreamLegality(t *testing.T) {
	const (
		frameData      = 0x0
		frameHeaders   = 0x1
		frameRSTStream = 0x3
		flagEndStream  = 0x1
	)
	// DATA before HEADERS on a client-initiated stream.
	c := New(1, 0, nil)
	c.H2Register("client", true, 65535)
	c.H2FrameSent("client", frameData, 1, 100, 0, 0)
	wantRules(t, c, "h2/data-on-idle-stream")

	// DATA after END_STREAM.
	c2 := New(1, 0, nil)
	c2.H2Register("client", true, 65535)
	c2.H2FrameSent("client", frameHeaders, 1, 30, flagEndStream, 0)
	c2.H2FrameSent("client", frameData, 1, 100, 0, 0)
	wantRules(t, c2, "h2/data-after-end-stream")

	// Frames after RST_STREAM.
	c3 := New(1, 0, nil)
	c3.H2Register("client", true, 65535)
	c3.H2FrameSent("client", frameHeaders, 1, 30, 0, 0)
	c3.H2FrameSent("client", frameRSTStream, 1, 4, 0, 0)
	c3.H2FrameSent("client", frameData, 1, 100, 0, 0)
	c3.H2FrameSent("client", frameRSTStream, 1, 4, 0, 0)
	wantRules(t, c3, "h2/frame-after-rst", "h2/double-rst")

	// RST-then-surfaced app data.
	c4 := New(1, 0, nil)
	c4.H2Register("client", true, 65535)
	c4.H2FrameSent("client", frameHeaders, 1, 30, 0, 0)
	c4.H2FrameSent("client", frameRSTStream, 1, 4, 0, 0)
	c4.H2AppData("client", 1)
	wantRules(t, c4, "h2/data-after-rst-surfaced")
}

func TestH2FlowControlWindows(t *testing.T) {
	c := New(1, 0, nil)
	c.H2Register("client", true, 65535)
	c.H2FrameSent("client", 0x1, 1, 30, 0, 0) // HEADERS opens stream 1
	// Consume the whole connection send window, then one more byte.
	c.H2DataSent("client", 1, 65535)
	wantRules(t, c)
	c.H2DataSent("client", 1, 1)
	got := rules(c)
	if len(got) == 0 || !strings.Contains(got[0], "send-window-negative") {
		t.Fatalf("want send-window-negative, got %v", got)
	}

	// WINDOW_UPDATE received replenishes; no violation after it.
	c2 := New(1, 0, nil)
	c2.H2Register("client", true, 65535)
	c2.H2FrameSent("client", 0x1, 1, 30, 0, 0)
	c2.H2DataSent("client", 1, 65535)
	c2.H2FrameRecv("client", 0x8, 0, 4, 0, 100) // conn window +100
	c2.H2FrameRecv("client", 0x8, 1, 4, 0, 100) // stream window +100
	c2.H2DataSent("client", 1, 100)
	wantRules(t, c2)
}

func TestHpackTableSync(t *testing.T) {
	c := New(1, 0, nil)
	c.H2Register("client", true, 65535)
	c.H2Register("server", false, 65535)
	// Client encodes at size 120, server decodes at 120: in sync.
	c.HpackEncoded("client", 120)
	c.HpackDecoded("server", 120)
	wantRules(t, c)
	// Drift: encoder says 200, decoder lands on 180.
	c.HpackEncoded("client", 200)
	c.HpackDecoded("server", 180)
	wantRules(t, c, "hpack/table-desync")
}

func TestLinkConservation(t *testing.T) {
	c := New(1, 0, nil)
	c.LinkOffered(DirC2S, 100)
	c.LinkForwarded(DirC2S, 100, false)
	c.LinkDelivered(DirC2S, 100)
	c.LinkOffered(DirC2S, 200)
	c.LinkDropped(DirC2S, 200, DropLoss)
	if n := c.Finalize(); n != 0 {
		t.Fatalf("clean link books finalize with %d violations: %v", n, rules(c))
	}

	// A forwarded packet that was never offered breaks conservation.
	c2 := New(1, 0, nil)
	c2.LinkOffered(DirC2S, 100)
	c2.LinkForwarded(DirC2S, 100, false)
	c2.LinkForwarded(DirC2S, 50, false)
	if n := c2.Finalize(); n == 0 {
		t.Fatal("unbalanced link books finalized clean")
	}

	// Delivery of a packet that was never forwarded.
	c3 := New(1, 0, nil)
	c3.LinkOffered(DirC2S, 100)
	c3.LinkDelivered(DirC2S, 100)
	got := rules(c3)
	if len(got) == 0 || got[0] != "netsim/delivered-unforwarded" {
		t.Fatalf("want delivered-unforwarded, got %v", got)
	}
}

func TestLinkStatsDrift(t *testing.T) {
	c := New(1, 0, nil)
	c.LinkOffered(DirS2C, 100)
	c.LinkForwarded(DirS2C, 100, false)
	c.LinkDelivered(DirS2C, 100)
	// Reported stats match the shadow.
	c.LinkStatsFinal(DirS2C, 1, 1, 0, 0, 0, 0, 0, 100)
	wantRules(t, c)
	// Reported stats disagree on BytesDelivered.
	c.LinkStatsFinal(DirS2C, 1, 1, 0, 0, 0, 0, 0, 99)
	if got := rules(c); len(got) == 0 || got[0] != "netsim/link-stats-drift" {
		t.Fatalf("want link-stats-drift, got %v", got)
	}
}

func TestSchedulerMonotonicity(t *testing.T) {
	c := New(1, 0, nil)
	c.SchedulerStep(time.Second)
	c.SchedulerStep(time.Second) // equal is fine (FIFO same-time events)
	c.SchedulerStep(2 * time.Second)
	wantRules(t, c)
	c.SchedulerStep(time.Second)
	wantRules(t, c, "simtime/time-regress")
}

func TestCaptureRules(t *testing.T) {
	// Contiguous appends into a record that fits its header: clean.
	c := New(1, 0, nil)
	c.CaptureAppend(DirC2S, 10, 0, 5, 1010)
	c.CaptureAppend(DirC2S, 5, 10, 15, 1015)
	c.CaptureRecord(DirC2S, 15, 0)
	wantRules(t, c)

	// The open record consumed more bytes than its header declares.
	c2 := New(1, 0, nil)
	c2.CaptureAppend(DirC2S, 10, 16, 15, 1010)
	wantRules(t, c2, "capture/record-overrun")

	// Sequence discontinuity.
	c3 := New(1, 0, nil)
	c3.CaptureAppend(DirC2S, 10, 0, 5, 1010)
	c3.CaptureAppend(DirC2S, 10, 10, 20, 1025)
	wantRules(t, c3, "capture/stream-discontinuity")

	// Records failing to partition the appended bytes.
	c4 := New(1, 0, nil)
	c4.CaptureAppend(DirC2S, 20, 0, 5, 1020)
	c4.CaptureRecord(DirC2S, 15, 0)
	wantRules(t, c4, "capture/record-partition")
}

func TestViolationCarriesTrialContext(t *testing.T) {
	c := New(42, 7, nil)
	clock := 3 * time.Second
	c.SetClock(func() time.Duration { return clock })
	c.SchedulerStep(2 * time.Second)
	c.SchedulerStep(time.Second)
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	v := vs[0]
	if v.TrialSeed != 42 || v.TrialIndex != 7 || v.At != 3*time.Second {
		t.Fatalf("violation context = seed %d index %d at %v", v.TrialSeed, v.TrialIndex, v.At)
	}
}

func TestPerTrialRetentionCap(t *testing.T) {
	rec := NewRecorder()
	c := New(1, 0, rec)
	for i := 0; i < maxPerTrial+50; i++ {
		c.TCPAck("ghost", 100, 0) // unregistered names are ignored
	}
	c.TCPRegister("x", 0)
	for i := 0; i < maxPerTrial+50; i++ {
		c.TCPRewind("x", 0, uint64(i+1)) // always forward: always violates
	}
	if got := len(c.Violations()); got != maxPerTrial {
		t.Fatalf("retained %d violations, cap is %d", got, maxPerTrial)
	}
	if c.Total() != maxPerTrial+50 {
		t.Fatalf("total %d, want %d", c.Total(), maxPerTrial+50)
	}
	c.Finalize()
	if rec.Total() != maxPerTrial+50 {
		t.Fatalf("recorder total %d, want %d", rec.Total(), maxPerTrial+50)
	}
}

func TestRecorderReport(t *testing.T) {
	rec := NewRecorder()
	// Clean recorder.
	c := New(5, 0, rec)
	c.Finalize()
	if rep := rec.Report(); !strings.Contains(rep, "OK") || !strings.Contains(rep, "1 trial") {
		t.Fatalf("clean report: %q", rep)
	}

	// One failing trial out of two.
	c2 := New(9, 1, rec)
	c2.TCPRegister("x", 0)
	c2.TCPRewind("x", 0, 5)
	c2.Finalize()
	rep := rec.Report()
	for _, want := range []string{"rewind-forward", "seed 9", "trial 1", "repro"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if rec.Trials() != 2 || rec.FailedTrials() != 1 {
		t.Fatalf("trials=%d failed=%d", rec.Trials(), rec.FailedTrials())
	}

	// A repro hook rewrites the repro line.
	rec2 := NewRecorder()
	rec2.SetRepro(func(v Violation) string { return "run-me --seed=" + v.String() })
	c3 := New(1, 0, rec2)
	c3.TCPRegister("x", 0)
	c3.TCPRewind("x", 0, 5)
	c3.Finalize()
	if rep := rec2.Report(); !strings.Contains(rep, "run-me --seed=") {
		t.Fatalf("custom repro missing:\n%s", rep)
	}
}

func TestConcurrentCheckerIsRaceFree(t *testing.T) {
	rec := NewRecorder()
	c := New(1, 0, rec)
	c.Concurrent()
	c.TCPRegister("client", 0)
	c.H2Register("client", true, 65535)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.TCPSegment("client", uint64(i*100), uint64(i*100+100), true)
				c.LinkOffered(DirC2S, 100)
				c.LinkForwarded(DirC2S, 100, false)
				c.LinkDelivered(DirC2S, 100)
				c.HpackEncoded("client", i)
			}
		}(g)
	}
	wg.Wait()
	c.Finalize()
}
