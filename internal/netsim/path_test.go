package netsim

import (
	"testing"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/simtime"
)

func newTestPath(t *testing.T) (*simtime.Scheduler, *Path, *[]*Packet, *[]*Packet) {
	t.Helper()
	sched := simtime.NewScheduler()
	p, err := NewPath(sched, simtime.NewRand(1), PathConfig{
		Link: LinkConfig{BandwidthBps: 1e9, PropDelay: time.Millisecond},
	}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var atServer, atClient []*Packet
	p.Connect(
		func(pkt *Packet) { atServer = append(atServer, pkt) },
		func(pkt *Packet) { atClient = append(atClient, pkt) },
	)
	return sched, p, &atServer, &atClient
}

func TestPathBothDirections(t *testing.T) {
	sched, p, atServer, atClient := newTestPath(t)
	p.Send(ClientToServer, 100, "req")
	p.Send(ServerToClient, 200, "resp")
	sched.Run()
	if len(*atServer) != 1 || (*atServer)[0].Payload != "req" {
		t.Fatalf("server got %v", *atServer)
	}
	if len(*atClient) != 1 || (*atClient)[0].Payload != "resp" {
		t.Fatalf("client got %v", *atClient)
	}
}

func TestPathSharedIDSpace(t *testing.T) {
	sched, p, atServer, atClient := newTestPath(t)
	p.Send(ClientToServer, 100, nil)
	p.Send(ServerToClient, 100, nil)
	p.Send(ClientToServer, 100, nil)
	sched.Run()
	ids := map[uint64]bool{}
	for _, pk := range append(append([]*Packet{}, *atServer...), *atClient...) {
		if ids[pk.ID] {
			t.Fatalf("duplicate packet ID %d across directions", pk.ID)
		}
		ids[pk.ID] = true
	}
	if len(ids) != 3 {
		t.Fatalf("got %d distinct IDs, want 3", len(ids))
	}
}

func TestPathProcessorSeesBothDirections(t *testing.T) {
	sched, p, _, _ := newTestPath(t)
	dirs := map[Direction]int{}
	p.AddProcessor(ProcessorFunc(func(now time.Duration, pkt *Packet) Verdict {
		dirs[pkt.Dir]++
		return Verdict{}
	}))
	p.Send(ClientToServer, 100, nil)
	p.Send(ServerToClient, 100, nil)
	sched.Run()
	if dirs[ClientToServer] != 1 || dirs[ServerToClient] != 1 {
		t.Fatalf("processor saw %v", dirs)
	}
}

func TestPathThrottleBothDirections(t *testing.T) {
	_, p, _, _ := newTestPath(t)
	p.SetBandwidth(8e6)
	if p.Link(ClientToServer).Bandwidth() != 8e6 || p.Link(ServerToClient).Bandwidth() != 8e6 {
		t.Fatal("SetBandwidth did not apply to both links")
	}
}

func TestPathAsymmetric(t *testing.T) {
	sched := simtime.NewScheduler()
	p, err := NewPath(sched, simtime.NewRand(1), PathConfig{
		Link:       LinkConfig{BandwidthBps: 1e9},
		Asymmetric: &LinkConfig{BandwidthBps: 5e5},
	}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Link(ServerToClient).Bandwidth() != 5e5 {
		t.Fatalf("return bandwidth = %v, want 5e5", p.Link(ServerToClient).Bandwidth())
	}
}

func TestPathValidation(t *testing.T) {
	if _, err := NewPath(nil, nil, PathConfig{Link: LinkConfig{BandwidthBps: 1}}, instr.Bundle{}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	sched := simtime.NewScheduler()
	if _, err := NewPath(sched, simtime.NewRand(1), PathConfig{}, instr.Bundle{}); err == nil {
		t.Fatal("zero link config accepted")
	}
}

func TestDirectionHelpers(t *testing.T) {
	if ClientToServer.Reverse() != ServerToClient || ServerToClient.Reverse() != ClientToServer {
		t.Fatal("Reverse broken")
	}
	if ClientToServer.String() != "c->s" || ServerToClient.String() != "s->c" || Direction(0).String() != "dir?" {
		t.Fatal("Direction.String broken")
	}
	for a, s := range map[Action]string{
		ActionForwarded: "fwd", ActionDroppedLoss: "drop-loss",
		ActionDroppedPolicy: "drop-policy", ActionDroppedQueue: "drop-queue",
		Action(0): "action?",
	} {
		if a.String() != s {
			t.Fatalf("Action(%d).String() = %q, want %q", a, a.String(), s)
		}
	}
}

func TestCrossTrafficConsumesBandwidth(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(1)
	p, err := NewPath(sched, rng.Fork(), PathConfig{
		Link: LinkConfig{BandwidthBps: 10e6, PropDelay: time.Millisecond},
	}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var fgArrivals []time.Duration
	p.Connect(
		func(pkt *Packet) {
			if _, bg := pkt.Payload.(Background); !bg {
				fgArrivals = append(fgArrivals, sched.Now())
			}
		},
		func(*Packet) {},
	)
	// Saturating background load on a 10 Mbps link.
	ct := NewCrossTraffic(sched, rng.Fork(), p, 9e6, 1200)
	ct.Start()
	sched.At(50*time.Millisecond, func() { p.Send(ClientToServer, 1200, "fg") })
	sched.At(300*time.Millisecond, ct.Stop)
	sched.RunUntil(2 * time.Second)
	if ct.Sent() < 100 {
		t.Fatalf("cross traffic sent only %d packets", ct.Sent())
	}
	if len(fgArrivals) != 1 {
		t.Fatalf("foreground packets = %d", len(fgArrivals))
	}
	// The foreground packet queued behind background packets: its
	// one-way latency must exceed the unloaded 1.96ms.
	latency := fgArrivals[0] - 50*time.Millisecond
	if latency <= 1960*time.Microsecond {
		t.Fatalf("foreground latency %v shows no queueing (unloaded = 1.96ms)", latency)
	}
}

func TestCrossTrafficZeroRateIsNoop(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(1)
	p, err := NewPath(sched, rng, PathConfig{Link: LinkConfig{BandwidthBps: 1e9}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	p.Connect(func(*Packet) {}, func(*Packet) {})
	ct := NewCrossTraffic(sched, rng, p, 0, 0)
	ct.Start()
	sched.Run()
	if ct.Sent() != 0 {
		t.Fatalf("zero-rate generator sent %d", ct.Sent())
	}
}
