package netsim

import (
	"fmt"
	"testing"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/instr"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
	"h2privacy/internal/trace"
)

// sentAtTap records when each background packet entered its link, per
// direction.
type sentAtTap struct{ last [2]time.Duration }

func (tp *sentAtTap) Observe(ev PacketEvent) {
	if _, bg := ev.Pkt.Payload.(Background); bg {
		tp.last[dirIndex(ev.Pkt.Dir)] = ev.Pkt.SentAt
	}
}

// loadedPath builds a 1 Gbps path carrying bps of background load in
// each direction, started at time zero and stopped at 1 s at the
// latest, whose endpoints count the packets delivered to them.
func loadedPath(t *testing.T, bps float64) (*simtime.Scheduler, *Path, *CrossTraffic, *sentAtTap, *int) {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(11)
	p, err := NewPath(sched, rng, PathConfig{Link: LinkConfig{BandwidthBps: 1e9, PropDelay: time.Millisecond}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := new(int)
	p.Connect(func(*Packet) { *delivered++ }, func(*Packet) { *delivered++ })
	tap := &sentAtTap{}
	p.AddTap(tap)
	ct := NewCrossTraffic(sched, rng.Fork(), p, bps, 1200)
	ct.StopAt(time.Second)
	sched.At(0, ct.Start)
	return sched, p, ct, tap, delivered
}

// TestCrossTrafficRunsUntilOnlyItIsLeft pins when background load ends on
// its own: a real event pending at `until` keeps both directions sending
// until it has fired, and each direction stops at its first tick after
// that, leaving only the drains of packets already queued.
func TestCrossTrafficRunsUntilOnlyItIsLeft(t *testing.T) {
	for _, until := range []time.Duration{5 * time.Millisecond, 30 * time.Millisecond} {
		sched, _, ct, tap, delivered := loadedPath(t, 100e6)
		sched.At(until, func() {})
		after := 0
		sched.SetStepHook(func(at time.Duration) {
			if at > until {
				after++
			}
		})
		sched.Run()
		for i, last := range tap.last {
			// The mean gap is 96 µs; the last packet of each direction
			// goes out shortly before the real event, none after it.
			if last >= until || last < until-time.Millisecond {
				t.Errorf("until %v: direction %d sent its last packet at %v", until, i, last)
			}
		}
		// Past the real event: one non-sending tick per direction, plus
		// at most one queue drain per direction (a packet serializes in
		// 9.6 µs).
		if after < 2 || after > 4 {
			t.Errorf("until %v: %d events fired after the real event, want the two final ticks and at most two drains", until, after)
		}
		// Both directions together send about two packets per mean gap.
		if want := int(until / (96 * time.Microsecond)); ct.Sent() < want {
			t.Errorf("until %v: sent %d packets, want at least %d", until, ct.Sent(), want)
		}
		if *delivered != 0 {
			t.Errorf("until %v: %d background packets reached an endpoint", until, *delivered)
		}
	}
}

// TestCrossTrafficDeadlineEndsLoad pins StopAt: with real work pending
// for longer, the generator sends nothing at or after its deadline.
func TestCrossTrafficDeadlineEndsLoad(t *testing.T) {
	sched, _, ct, tap, _ := loadedPath(t, 100e6)
	deadline := 10 * time.Millisecond
	ct.StopAt(deadline)
	var work func()
	work = func() {
		if sched.Now() < 50*time.Millisecond {
			sched.After(time.Millisecond, work)
		}
	}
	sched.At(0, work)
	sched.Run()
	for i, last := range tap.last {
		if last >= deadline || last < deadline-time.Millisecond {
			t.Errorf("direction %d sent its last packet at %v, deadline %v", i, last, deadline)
		}
	}
	if sched.Now() != 50*time.Millisecond {
		t.Errorf("the real work ended at %v, want 50ms", sched.Now())
	}
	if ct.Sent() < 2*80 {
		t.Errorf("sent only %d packets before the deadline", ct.Sent())
	}
}

// TestCrossTrafficBehindBottleneckIsDelivered pins the shared-bottleneck
// path: background packets travel the shared lanes and are delivered as
// before, and their pending drains and deliveries are not the
// generator's own. At 100 Mbps some are always pending, so only the
// deadline stops the load; at 1 Mbps every packet has arrived before
// the next tick, so the load ends at the first tick after the last real
// event.
func TestCrossTrafficBehindBottleneckIsDelivered(t *testing.T) {
	for _, c := range []struct {
		bps        float64
		real, last time.Duration // the real event; no packet sent at or after last
	}{
		{100e6, 0, 5 * time.Millisecond},
		{1e6, 50 * time.Millisecond, 50 * time.Millisecond},
	} {
		sched, p, ct, tap, delivered := loadedPath(t, c.bps)
		b, err := NewBottleneck(sched, BottleneckConfig{BandwidthBps: 1e9}, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		b.Attach(p)
		if c.real > 0 {
			sched.At(c.real, func() {})
		} else {
			ct.StopAt(c.last)
		}
		sched.Run()
		for i, last := range tap.last {
			if last >= c.last || last < c.last-40*time.Millisecond {
				t.Errorf("%.0f bps: direction %d sent its last packet at %v, want just before %v", c.bps, i, last, c.last)
			}
		}
		st := p.Link(ClientToServer).Stats()
		st2 := p.Link(ServerToClient).Stats()
		if *delivered == 0 || *delivered != st.Delivered+st2.Delivered {
			t.Errorf("%.0f bps: endpoints saw %d packets, links delivered %d", c.bps, *delivered, st.Delivered+st2.Delivered)
		}
	}
}

// bgLink is a lossy, jittery, duplicating link with recycling armed that
// counts what reaches its handler and what it releases.
type bgLink struct {
	sched    *simtime.Scheduler
	l        *Link
	fg       []time.Duration // arrival times of "fg" packets
	handled  int             // background packets that reached the handler
	released int             // background payloads released
}

func newBGLink(t *testing.T, ins instr.Bundle) *bgLink {
	t.Helper()
	b := &bgLink{sched: simtime.NewScheduler()}
	var err error
	b.l, err = NewLink(b.sched, simtime.NewRand(21), ClientToServer, LinkConfig{
		BandwidthBps: 1e7, PropDelay: time.Millisecond, NaturalJitter: 2 * time.Millisecond,
		ReorderProb: 0.3, LossProb: 0.1, DuplicateProb: 0.2, QueueLimit: 20_000,
	}, nil, ins)
	if err != nil {
		t.Fatal(err)
	}
	b.l.SetDeliver(func(pkt *Packet) {
		if pkt.Payload == "fg" {
			b.fg = append(b.fg, b.sched.Now())
		} else {
			b.handled++
		}
	})
	b.l.SetRecycle(new(pool.FreeList[Packet]), func(payload any) {
		if _, bg := payload.(Background); bg {
			b.released++
		}
	})
	return b
}

// TestSendBackgroundBooksArrivalAtForward pins the background send
// against Send on a twin link: the packet takes Send's draws in Send's
// order and holds its queue bytes until its drain, its arrival (and a
// duplicate's) is booked when it is forwarded, it never reaches the
// handler, and it is recycled after its drain without allocating.
func TestSendBackgroundBooksArrivalAtForward(t *testing.T) {
	rec := check.NewRecorder()
	ck := check.New(21, 0, rec)
	bg, ref := newBGLink(t, instr.Bundle{Check: ck}), newBGLink(t, instr.Bundle{})
	const n = 40
	for i := 0; i < n; i++ {
		bg.l.SendBackground(1200)
		ref.l.Send(1200, Background{})
	}
	st := bg.l.Stats()
	forwarded := st.Sent - st.DroppedLoss - st.DroppedQueue
	if st.Delivered != forwarded+st.Duplicated || st.BytesDelivered != int64(1200*st.Delivered) {
		t.Fatalf("at forward: %+v, want every forwarded copy booked as delivered", st)
	}
	if st.Duplicated == 0 || st.DroppedLoss == 0 || st.DroppedQueue == 0 {
		t.Fatalf("workload exercises too little: %+v", st)
	}
	if bg.l.queuedBytes != 1200*forwarded || bg.l.bgQueued != forwarded {
		t.Fatalf("%d bytes in %d packets queued, want all %d forwarded packets queued until their drains",
			bg.l.queuedBytes, bg.l.bgQueued, forwarded)
	}
	// Real packets sent while the queue drains meet the same backlog and
	// the same RNG position on both links.
	for _, b := range []*bgLink{bg, ref} {
		for at := time.Millisecond; at <= 10*time.Millisecond; at += time.Millisecond {
			b.sched.At(at, func() { b.l.Send(1200, "fg") })
		}
		b.sched.Run()
	}
	if bg.handled != 0 {
		t.Fatalf("%d background packets reached the handler", bg.handled)
	}
	if len(bg.fg) == 0 || fmt.Sprint(bg.fg) != fmt.Sprint(ref.fg) {
		t.Fatalf("real packets arrived at %v, behind a Send-loaded queue at %v", bg.fg, ref.fg)
	}
	final := bg.l.Stats()
	if rs := ref.l.Stats(); final != rs {
		t.Fatalf("background stats %+v, Send stats %+v", final, rs)
	}
	if bg.released != n || bg.l.queuedBytes != 0 || bg.l.bgQueued != 0 {
		t.Fatalf("released %d of %d packets; %d bytes in %d packets still queued",
			bg.released, n, bg.l.queuedBytes, bg.l.bgQueued)
	}
	ck.LinkStatsFinal(check.DirC2S, final.Sent, final.Delivered, final.Duplicated, final.DroppedLoss,
		final.DroppedPolicy, final.DroppedQueue, final.DroppedFault, final.BytesDelivered)
	if v := ck.Finalize(); v != 0 {
		t.Fatalf("%d violations:\n%s", v, rec.Report())
	}

	burst := func() {
		for i := 0; i < 16; i++ {
			bg.l.SendBackground(1200)
		}
		bg.sched.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
		t.Fatalf("recycling SendBackground→drain allocates %.2f per burst, want 0", allocs)
	}
}

// TestSendBackgroundTraceMatchesStats pins that a traced link's netsim
// events still carry its counts when background packets are booked at
// forward: one "enqueue" per Sent and one "dequeue" per Delivered.
func TestSendBackgroundTraceMatchesStats(t *testing.T) {
	tr := trace.New(nil, trace.Config{})
	b := newBGLink(t, instr.Bundle{Trace: tr})
	for i := 0; i < 40; i++ {
		b.l.SendBackground(1200)
		if i%8 == 0 {
			b.l.Send(1200, "fg")
		}
	}
	b.sched.Run()
	kinds := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Layer == trace.LayerNetsim {
			kinds[ev.Kind]++
		}
	}
	st := b.l.Stats()
	if kinds["enqueue"] != st.Sent || kinds["dequeue"] != st.Delivered || st.Delivered == len(b.fg) {
		t.Fatalf("netsim events %v, stats %+v, real arrivals %d", kinds, st, len(b.fg))
	}
}
