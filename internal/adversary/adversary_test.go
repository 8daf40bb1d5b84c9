package adversary

import (
	"testing"
	"time"

	"h2privacy/internal/capture"
	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
)

// testPath builds a controller over a fast path with delivery recording.
func testPath(t *testing.T) (*simtime.Scheduler, *netsim.Path, *Controller, *[]delivery) {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(1)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: netsim.LinkConfig{
		BandwidthBps: 1e9,
	}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var got []delivery
	path.Connect(
		func(pkt *netsim.Packet) { got = append(got, delivery{sched.Now(), pkt}) },
		func(pkt *netsim.Packet) { got = append(got, delivery{sched.Now(), pkt}) },
	)
	ctrl := NewController(sched, rng.Fork(), path, instr.Bundle{})
	return sched, path, ctrl, &got
}

type delivery struct {
	at  time.Duration
	pkt *netsim.Packet
}

// getSegment fabricates a GET-sized application record in a TCP segment.
func getSegment(seqNo uint64) *tcpsim.Segment {
	payload := make([]byte, 70)
	payload[0] = byte(tlsrec.ContentApplicationData)
	payload[1], payload[2] = 3, 3
	payload[3], payload[4] = 0, 65
	return &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: seqNo, Payload: payload}
}

// setupSegments covers the preface/SETTINGS skip window.
func primeClassifier(path *netsim.Path, seqStart uint64) uint64 {
	for i := 0; i < 2; i++ {
		seg := getSegment(seqStart)
		path.Send(netsim.ClientToServer, seg.WireSize(), seg)
		seqStart += uint64(len(seg.Payload))
	}
	return seqStart
}

func TestRequestSpacingSchedule(t *testing.T) {
	sched, path, ctrl, got := testPath(t)
	ctrl.SetRequestSpacing(50 * time.Millisecond)
	seq := primeClassifier(path, 1000)
	for i := 0; i < 3; i++ {
		seg := getSegment(seq)
		path.Send(netsim.ClientToServer, seg.WireSize(), seg)
		seq += uint64(len(seg.Payload))
	}
	sched.Run()
	if len(*got) != 5 {
		t.Fatalf("delivered %d packets", len(*got))
	}
	// GETs 1..3 (after the two setup records) delayed by 50/100/150 ms.
	for i, want := range []time.Duration{50, 100, 150} {
		at := (*got)[2+i].at
		if at < want*time.Millisecond || at > want*time.Millisecond+time.Millisecond {
			t.Fatalf("GET %d delivered at %v, want ≈%dms", i+1, at, want)
		}
	}
	if ctrl.Stats().DelayedGETs != 3 {
		t.Fatalf("DelayedGETs = %d", ctrl.Stats().DelayedGETs)
	}
}

func TestRetransmitsInheritDelay(t *testing.T) {
	sched, path, ctrl, got := testPath(t)
	ctrl.SetRequestSpacing(50 * time.Millisecond)
	seq := primeClassifier(path, 1000)
	seg := getSegment(seq)
	path.Send(netsim.ClientToServer, seg.WireSize(), seg)
	// A TCP retransmission of the same GET must not overtake it.
	rtx := getSegment(seq)
	rtx.Retransmit = true
	path.Send(netsim.ClientToServer, rtx.WireSize(), rtx)
	sched.Run()
	rtxAt := (*got)[3].at
	if rtxAt < 50*time.Millisecond {
		t.Fatalf("retransmit delivered at %v, before its original's hold", rtxAt)
	}
}

func TestDropServerData(t *testing.T) {
	sched, path, ctrl, got := testPath(t)
	ctrl.DropServerData(1.0, 1.0, time.Second) // drop everything with payload
	data := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 1, Payload: make([]byte, 500)}
	ack := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 2}
	path.Send(netsim.ServerToClient, data.WireSize(), data)
	path.Send(netsim.ServerToClient, ack.WireSize(), ack)
	sched.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1 (pure ACK passes)", len(*got))
	}
	if ctrl.Stats().DroppedPkts != 1 {
		t.Fatalf("dropped = %d", ctrl.Stats().DroppedPkts)
	}
	// After the window, payload flows again.
	sched.At(2*time.Second, func() {
		path.Send(netsim.ServerToClient, data.WireSize(), data)
	})
	sched.Run()
	if len(*got) != 2 {
		t.Fatalf("post-window delivery failed: %d", len(*got))
	}
}

func TestDropRetransmitRateSelective(t *testing.T) {
	sched, path, ctrl, got := testPath(t)
	ctrl.DropServerData(0, 1.0, time.Second) // only retransmissions die
	fresh := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 1, Payload: make([]byte, 500)}
	rtx := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 1, Payload: make([]byte, 500), Retransmit: true}
	path.Send(netsim.ServerToClient, fresh.WireSize(), fresh)
	path.Send(netsim.ServerToClient, rtx.WireSize(), rtx)
	sched.Run()
	if len(*got) != 1 || (*got)[0].pkt.Payload.(*tcpsim.Segment).Retransmit {
		t.Fatalf("selective drop failed: %d delivered", len(*got))
	}
}

func TestRandomJitterAppliesPerDirection(t *testing.T) {
	sched, path, ctrl, got := testPath(t)
	ctrl.SetRandomJitter(netsim.ServerToClient, 20*time.Millisecond)
	seg := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 1, Payload: make([]byte, 100)}
	path.Send(netsim.ClientToServer, seg.WireSize(), seg)
	path.Send(netsim.ServerToClient, seg.WireSize(), seg)
	sched.Run()
	var c2s, s2c time.Duration
	for _, d := range *got {
		if d.pkt.Dir == netsim.ClientToServer {
			c2s = d.at
		} else {
			s2c = d.at
		}
	}
	if c2s > time.Millisecond {
		t.Fatalf("c2s jittered: %v", c2s)
	}
	if s2c == 0 {
		t.Fatal("s2c packet missing")
	}
}

func TestThrottle(t *testing.T) {
	_, path, ctrl, _ := testPath(t)
	ctrl.Throttle(800e6)
	if path.Link(netsim.ClientToServer).Bandwidth() != 800e6 {
		t.Fatal("throttle did not apply")
	}
	if ctrl.Stats().ThrottleEvents != 1 {
		t.Fatal("throttle event not counted")
	}
}

func TestDriverPhases(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(3)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: netsim.LinkConfig{BandwidthBps: 1e9}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	path.Connect(func(*netsim.Packet) {}, func(*netsim.Packet) {})
	mon := capture.NewMonitor(instr.Bundle{})
	path.AddTap(mon)
	ctrl := NewController(sched, rng.Fork(), path, instr.Bundle{})
	plan := DefaultPlan()
	plan.TriggerGET = 2
	plan.DropDuration = time.Second
	d, err := NewDriver(sched, ctrl, mon, plan)
	if err != nil {
		t.Fatal(err)
	}
	if d.Phase() != PhaseIdle {
		t.Fatalf("initial phase %v", d.Phase())
	}
	// Feed the monitor enough GETs to trigger.
	seq := uint64(1001)
	syn := &tcpsim.Segment{Flags: tcpsim.FlagSYN, Seq: 1000}
	path.Send(netsim.ClientToServer, syn.WireSize(), syn)
	for i := 0; i < 4; i++ { // 2 setup + 2 GETs
		seg := getSegment(seq)
		path.Send(netsim.ClientToServer, seg.WireSize(), seg)
		seq += uint64(len(seg.Payload))
	}
	sched.RunUntil(100 * time.Millisecond)
	if d.Phase() != PhaseDropping {
		t.Fatalf("phase after trigger = %v", d.Phase())
	}
	sched.RunUntil(2 * time.Second)
	if d.Phase() != PhaseSpacing {
		t.Fatalf("phase after drop window = %v", d.Phase())
	}
	if len(d.PhaseLog) != 3 {
		t.Fatalf("phase log = %v", d.PhaseLog)
	}
	for p, want := range map[Phase]string{
		PhaseIdle: "jitter+count", PhaseDropping: "throttle+drop",
		PhaseSpacing: "space-images", Phase(0): "phase?",
	} {
		if p.String() != want {
			t.Fatalf("Phase(%d).String() = %q", p, p.String())
		}
	}
}

func TestDefaultPlanValues(t *testing.T) {
	p := DefaultPlan()
	if p.Phase1Jitter != 50*time.Millisecond || p.TriggerGET != 6 ||
		p.ThrottleBps != 800e6 || p.DropRate != 0.8 || p.Phase3Jitter != 80*time.Millisecond {
		t.Fatalf("plan = %+v", p)
	}
	d := p.withDefaults()
	if d.Phase1RandomJitter == 0 || d.DropRetransmitRate == 0 {
		t.Fatalf("defaults not filled: %+v", d)
	}
}
