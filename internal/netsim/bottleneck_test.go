package netsim

import (
	"testing"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/simtime"
)

// bottleneckHarness assembles n paths attached to one bottleneck and
// returns per-path, per-direction delivery timestamps.
type bottleneckHarness struct {
	sched *simtime.Scheduler
	bn    *Bottleneck
	paths []*Path
	// atServer[i] / atClient[i] are path i's delivery times.
	atServer [][]time.Duration
	atClient [][]time.Duration
}

func newBottleneckHarness(t *testing.T, n int, link LinkConfig, cfg BottleneckConfig) *bottleneckHarness {
	t.Helper()
	h := &bottleneckHarness{
		sched:    simtime.NewScheduler(),
		atServer: make([][]time.Duration, n),
		atClient: make([][]time.Duration, n),
	}
	bn, err := NewBottleneck(h.sched, cfg, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	h.bn = bn
	for i := 0; i < n; i++ {
		p, err := NewPath(h.sched, simtime.NewRand(int64(i+1)), PathConfig{Link: link}, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		i := i
		p.Connect(
			func(pkt *Packet) { h.atServer[i] = append(h.atServer[i], h.sched.Now()) },
			func(pkt *Packet) { h.atClient[i] = append(h.atClient[i], h.sched.Now()) },
		)
		bn.Attach(p)
		h.paths = append(h.paths, p)
	}
	return h
}

// TestBottleneckMirrorsStandalone is the N=1 contract at the link layer:
// one flow through a bottleneck whose config mirrors the member link
// delivers every packet — jitter and duplicate draws included — at the
// exact instants the standalone point-to-point link does.
func TestBottleneckMirrorsStandalone(t *testing.T) {
	link := LinkConfig{
		BandwidthBps: 8e6, PropDelay: 2 * time.Millisecond,
		NaturalJitter: time.Millisecond, DuplicateProb: 0.2,
	}
	send := func(p *Path, sched *simtime.Scheduler) {
		for i := 0; i < 30; i++ {
			at := time.Duration(i) * 100 * time.Microsecond
			sched.At(at, func() {
				p.Send(ClientToServer, 400, nil)
				p.Send(ServerToClient, 1200, nil)
			})
		}
	}

	solo := simtime.NewScheduler()
	sp, err := NewPath(solo, simtime.NewRand(1), PathConfig{Link: link}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var soloServer, soloClient []time.Duration
	sp.Connect(
		func(pkt *Packet) { soloServer = append(soloServer, solo.Now()) },
		func(pkt *Packet) { soloClient = append(soloClient, solo.Now()) },
	)
	send(sp, solo)
	solo.Run()

	h := newBottleneckHarness(t, 1, link, BottleneckConfig{BandwidthBps: link.BandwidthBps})
	send(h.paths[0], h.sched)
	h.sched.Run()

	if len(soloServer) == 0 || len(soloClient) == 0 {
		t.Fatal("standalone run delivered nothing")
	}
	for i, at := range h.atServer[0] {
		if i >= len(soloServer) || soloServer[i] != at {
			t.Fatalf("c2s delivery %d: bottleneck %v vs standalone %v", i, at, soloServer[i])
		}
	}
	for i, at := range h.atClient[0] {
		if i >= len(soloClient) || soloClient[i] != at {
			t.Fatalf("s2c delivery %d: bottleneck %v vs standalone %v", i, at, soloClient[i])
		}
	}
	if len(h.atServer[0]) != len(soloServer) || len(h.atClient[0]) != len(soloClient) {
		t.Fatalf("delivery counts differ: bottleneck %d/%d vs standalone %d/%d",
			len(h.atServer[0]), len(h.atClient[0]), len(soloServer), len(soloClient))
	}
	if st := h.bn.Stats(ClientToServer); st.Forwarded != 30 || st.DroppedQueue != 0 {
		t.Errorf("c2s agg stats %+v, want 30 forwarded, 0 dropped", st)
	}
}

// TestBottleneckFIFOHeadOfLine pins the collateral mechanism: on a FIFO
// bottleneck another flow's packet serializes behind the first flow's,
// so simultaneous sends deliver one serialization time apart.
func TestBottleneckFIFOHeadOfLine(t *testing.T) {
	link := LinkConfig{BandwidthBps: 1e9, PropDelay: time.Millisecond}
	h := newBottleneckHarness(t, 2, link, BottleneckConfig{BandwidthBps: 8e5})
	h.paths[0].Send(ClientToServer, 1000, nil)
	h.paths[1].Send(ClientToServer, 1000, nil)
	h.sched.Run()
	if len(h.atServer[0]) != 1 || len(h.atServer[1]) != 1 {
		t.Fatalf("deliveries: %d/%d, want 1 each", len(h.atServer[0]), len(h.atServer[1]))
	}
	txTime := 10 * time.Millisecond // 1000 B at 800 kbit/s
	if got := h.atServer[1][0] - h.atServer[0][0]; got != txTime {
		t.Errorf("flow 1 delivered %v after flow 0, want one serialization time (%v)", got, txTime)
	}
}

// TestBottleneckSharedQueueDrop fills the shared byte budget from one
// flow and verifies the overflow tail-drops, booked on both the
// aggregate and the dropping flow's own stats — and that admissions
// stay conserved: aggregate forwarded = sum of member-link forwarded.
func TestBottleneckSharedQueueDrop(t *testing.T) {
	link := LinkConfig{BandwidthBps: 1e9, PropDelay: time.Millisecond}
	h := newBottleneckHarness(t, 2, link, BottleneckConfig{BandwidthBps: 8e5, QueueLimit: 2500})
	for i := 0; i < 5; i++ {
		h.paths[0].Send(ClientToServer, 1000, nil)
	}
	h.paths[1].Send(ClientToServer, 1000, nil)
	h.sched.Run()
	agg := h.bn.Stats(ClientToServer)
	if agg.DroppedQueue == 0 {
		t.Fatal("overfilling the shared queue dropped nothing")
	}
	flowDrops := h.paths[0].Link(ClientToServer).Stats().DroppedQueue +
		h.paths[1].Link(ClientToServer).Stats().DroppedQueue
	if flowDrops != agg.DroppedQueue {
		t.Errorf("per-flow queue drops %d != aggregate %d", flowDrops, agg.DroppedQueue)
	}
	var fwd int
	for _, p := range h.paths {
		st := p.Link(ClientToServer).Stats()
		fwd += st.Sent - st.DroppedQueue
	}
	if agg.Forwarded != fwd {
		t.Errorf("aggregate forwarded %d != sum of member admissions %d", agg.Forwarded, fwd)
	}
	if got := len(h.atServer[0]) + len(h.atServer[1]); got != 6-agg.DroppedQueue {
		t.Errorf("delivered %d packets, want %d", got, 6-agg.DroppedQueue)
	}
}

// TestBottleneckDRRProtectsLightFlow pins the discipline difference: a
// light flow's packet stuck behind a heavy flow's backlog is served
// round-robin under DRR, strictly earlier than FIFO's send-order
// serialization would deliver it.
func TestBottleneckDRRProtectsLightFlow(t *testing.T) {
	link := LinkConfig{BandwidthBps: 1e9, PropDelay: time.Millisecond}
	lightArrival := func(disc Discipline) time.Duration {
		h := newBottleneckHarness(t, 2, link, BottleneckConfig{
			BandwidthBps: 8e5, Discipline: disc, QueueLimit: 1 << 20,
		})
		for i := 0; i < 20; i++ {
			h.paths[0].Send(ClientToServer, 1000, nil)
		}
		h.paths[1].Send(ClientToServer, 1000, nil)
		h.sched.Run()
		if len(h.atServer[1]) != 1 {
			t.Fatalf("%v: light flow delivered %d packets, want 1", disc, len(h.atServer[1]))
		}
		return h.atServer[1][0]
	}
	fifo := lightArrival(FIFO)
	drr := lightArrival(DRR)
	if drr >= fifo {
		t.Errorf("DRR served the light flow at %v, FIFO at %v; want strictly earlier under DRR", drr, fifo)
	}
}
