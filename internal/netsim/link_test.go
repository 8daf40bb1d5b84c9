package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
)

func newTestLink(t *testing.T, cfg LinkConfig) (*simtime.Scheduler, *Link, *[]*Packet) {
	t.Helper()
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(1), ClientToServer, cfg, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var got []*Packet
	l.SetDeliver(func(p *Packet) { got = append(got, p) })
	return sched, l, &got
}

func TestLinkDeliversWithPropDelay(t *testing.T) {
	sched, l, got := newTestLink(t, LinkConfig{
		BandwidthBps: 8e9, // 1 GB/s: serialization negligible but nonzero
		PropDelay:    5 * time.Millisecond,
	})
	l.Send(1000, "hello")
	sched.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*got))
	}
	p := (*got)[0]
	if p.Payload != "hello" || p.Size != 1000 || p.Dir != ClientToServer {
		t.Fatalf("bad packet: %+v", p)
	}
	// 1000 bytes at 8e9 bps = 1µs serialization + 5ms prop.
	want := 5*time.Millisecond + time.Microsecond
	if sched.Now() != want {
		t.Fatalf("arrival at %v, want %v", sched.Now(), want)
	}
}

func TestLinkSerializationFIFO(t *testing.T) {
	// 8 Mbps: a 1000-byte packet takes 1ms to serialize. Three packets
	// sent back-to-back must arrive 1ms apart, in order.
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{
		BandwidthBps: 8e6,
		PropDelay:    time.Millisecond,
	}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	var order []int
	l.SetDeliver(func(p *Packet) {
		arrivals = append(arrivals, sched.Now())
		order = append(order, p.Payload.(int))
	})
	for i := 0; i < 3; i++ {
		l.Send(1000, i)
	}
	sched.Run()
	want := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestLinkBandwidthChangeAffectsNewPackets(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{
		BandwidthBps: 8e6, PropDelay: 0,
	}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	l.SetDeliver(func(p *Packet) { arrivals = append(arrivals, sched.Now()) })
	l.Send(1000, nil) // 1ms at 8Mbps
	l.SetBandwidth(8e3)
	l.Send(1000, nil) // 1s at 8kbps, queued behind the first
	sched.Run()
	if arrivals[0] != time.Millisecond {
		t.Fatalf("first arrival %v, want 1ms", arrivals[0])
	}
	if arrivals[1] != time.Millisecond+time.Second {
		t.Fatalf("second arrival %v, want 1.001s", arrivals[1])
	}
}

// TestLinkSetBandwidthRejectsNonPositive: a zero or negative rate is a
// programming error and panics with a clear message rather than being
// silently ignored.
func TestLinkSetBandwidthRejectsNonPositive(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{
		BandwidthBps: 8e6,
	}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bps := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetBandwidth(%v) did not panic", bps)
				}
			}()
			l.SetBandwidth(bps)
		}()
	}
	if l.Bandwidth() != 8e6 {
		t.Fatal("rejected SetBandwidth must leave the rate unchanged")
	}
}

func TestLinkAdversaryDelayReorders(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{
		BandwidthBps: 8e9, PropDelay: time.Millisecond,
	}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	// Delay only packet 0 by 10ms: packet 1 must overtake it.
	l.AddProcessor(ProcessorFunc(func(now time.Duration, pkt *Packet) Verdict {
		if pkt.Payload.(int) == 0 {
			return Verdict{ExtraDelay: 10 * time.Millisecond}
		}
		return Verdict{}
	}))
	var order []int
	l.SetDeliver(func(p *Packet) { order = append(order, p.Payload.(int)) })
	l.Send(100, 0)
	l.Send(100, 1)
	sched.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0] (reordered)", order)
	}
}

func TestLinkPolicyDropStopsChain(t *testing.T) {
	sched, l, got := newTestLink(t, LinkConfig{BandwidthBps: 8e6})
	var laterSaw int
	l.AddProcessor(ProcessorFunc(func(now time.Duration, pkt *Packet) Verdict {
		return Verdict{Drop: pkt.Payload.(int)%2 == 0}
	}))
	l.AddProcessor(ProcessorFunc(func(now time.Duration, pkt *Packet) Verdict {
		laterSaw++
		return Verdict{}
	}))
	for i := 0; i < 4; i++ {
		l.Send(100, i)
	}
	sched.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
	if laterSaw != 2 {
		t.Fatalf("later processor saw %d packets, want 2 (drops short-circuit)", laterSaw)
	}
	st := l.Stats()
	if st.Sent != 4 || st.DroppedPolicy != 2 || st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLinkRandomLoss(t *testing.T) {
	sched, l, got := newTestLink(t, LinkConfig{BandwidthBps: 8e9, LossProb: 0.5})
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(100, i)
	}
	sched.Run()
	frac := float64(len(*got)) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivered fraction %v with LossProb 0.5", frac)
	}
	st := l.Stats()
	if st.DroppedLoss+st.Delivered != n {
		t.Fatalf("loss+delivered = %d, want %d", st.DroppedLoss+st.Delivered, n)
	}
}

func TestLinkQueueTailDrop(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{
		BandwidthBps: 8e3, // slow: 1000B takes 1s
		QueueLimit:   2500,
	}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	l.SetDeliver(func(p *Packet) { n++ })
	for i := 0; i < 5; i++ {
		l.Send(1000, i) // third..fifth exceed the 2500B queue
	}
	sched.Run()
	if n != 2 {
		t.Fatalf("delivered %d, want 2", n)
	}
	if l.Stats().DroppedQueue != 3 {
		t.Fatalf("queue drops = %d, want 3", l.Stats().DroppedQueue)
	}
}

func TestLinkTapSeesEverything(t *testing.T) {
	sched, l, _ := newTestLink(t, LinkConfig{BandwidthBps: 8e6})
	l.AddProcessor(ProcessorFunc(func(now time.Duration, pkt *Packet) Verdict {
		return Verdict{Drop: pkt.Payload.(int) == 1}
	}))
	var evs []PacketEvent
	l.AddTap(tapFunc(func(ev PacketEvent) { evs = append(evs, ev) }))
	l.Send(100, 0)
	l.Send(100, 1)
	sched.Run()
	if len(evs) != 2 {
		t.Fatalf("tap saw %d events, want 2", len(evs))
	}
	if evs[0].Action != ActionForwarded || evs[0].Arrival == 0 {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Action != ActionDroppedPolicy || evs[1].Arrival != 0 {
		t.Fatalf("second event = %+v", evs[1])
	}
}

type tapFunc func(PacketEvent)

func (f tapFunc) Observe(ev PacketEvent) { f(ev) }

func TestLinkConfigValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	if _, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{}, nil, instr.Bundle{}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{BandwidthBps: 1, LossProb: 1.5}, nil, instr.Bundle{}); err == nil {
		t.Fatal("loss prob 1.5 accepted")
	}
}

func TestLinkSendPanics(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{BandwidthBps: 1e6}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Send with no deliver handler did not panic")
			}
		}()
		l.Send(100, nil)
	}()
	l.SetDeliver(func(*Packet) {})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Send with size 0 did not panic")
			}
		}()
		l.Send(0, nil)
	}()
}

// Property: with no loss, no policy and ample queue, every packet is
// delivered exactly once and per-link byte accounting balances.
func TestLinkConservationProperty(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		sched := simtime.NewScheduler()
		l, err := NewLink(sched, simtime.NewRand(seed), ClientToServer, LinkConfig{
			BandwidthBps:  1e9,
			PropDelay:     time.Millisecond,
			NaturalJitter: 3 * time.Millisecond,
			QueueLimit:    1 << 30,
		}, nil, instr.Bundle{})
		if err != nil {
			return false
		}
		var gotBytes int64
		var gotCount int
		l.SetDeliver(func(p *Packet) { gotBytes += int64(p.Size); gotCount++ })
		var sentBytes int64
		for _, s := range sizes {
			size := int(s)%1500 + 1
			sentBytes += int64(size)
			l.Send(size, nil)
		}
		sched.Run()
		st := l.Stats()
		return gotCount == len(sizes) && gotBytes == sentBytes &&
			st.Delivered == len(sizes) && st.BytesDelivered == sentBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDuplication(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(5), ClientToServer, LinkConfig{
		BandwidthBps:  1e9,
		DuplicateProb: 0.5,
	}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	l.SetDeliver(func(*Packet) { n++ })
	const sent = 1000
	for i := 0; i < sent; i++ {
		l.Send(100, i)
	}
	sched.Run()
	st := l.Stats()
	if st.Duplicated < sent/3 || st.Duplicated > 2*sent/3 {
		t.Fatalf("duplicated %d of %d at p=0.5", st.Duplicated, sent)
	}
	if n != sent+st.Duplicated {
		t.Fatalf("delivered %d, want %d", n, sent+st.Duplicated)
	}
	if _, err := NewLink(sched, simtime.NewRand(1), ClientToServer, LinkConfig{BandwidthBps: 1, DuplicateProb: 1.5}, nil, instr.Bundle{}); err == nil {
		t.Fatal("bad duplicate prob accepted")
	}
}

// TestLinkDuplicateStatsAndReorderGate: a duplicated copy counts in
// Delivered AND BytesDelivered (it crossed the wire like any packet), and
// its jitter draw goes through the same ReorderProb gate as the primary —
// with the gate effectively closed, both copies arrive at the exact
// un-jittered time.
func TestLinkDuplicateStatsAndReorderGate(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(11), ClientToServer, LinkConfig{
		BandwidthBps:  8e6, // 1 µs per byte
		PropDelay:     time.Millisecond,
		NaturalJitter: 50 * time.Millisecond,
		ReorderProb:   1e-12,   // gate essentially never opens
		DuplicateProb: 0.99999, // effectively every packet duplicated
	}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	l.SetDeliver(func(*Packet) { arrivals = append(arrivals, sched.Now()) })
	const size, sent = 100, 50
	for i := 0; i < sent; i++ {
		l.Send(size, i)
	}
	sched.Run()
	st := l.Stats()
	if st.Duplicated < sent/2 {
		t.Fatalf("Duplicated = %d of %d at p≈1", st.Duplicated, sent)
	}
	if st.Delivered != sent+st.Duplicated {
		t.Fatalf("Delivered = %d, want %d (duplicates included)", st.Delivered, sent+st.Duplicated)
	}
	if st.BytesDelivered != int64(size*(sent+st.Duplicated)) {
		t.Fatalf("BytesDelivered = %d, want %d (duplicates included)", st.BytesDelivered, size*(sent+st.Duplicated))
	}
	// Every copy — primary or duplicate — arrives at an exact FIFO slot
	// (k·tx + prop): no copy took an ungated jitter draw.
	for i, at := range arrivals {
		slot := at - time.Millisecond
		if slot <= 0 || slot%(size*time.Microsecond) != 0 || slot > sent*size*time.Microsecond {
			t.Fatalf("arrival %d at %v off the FIFO grid (jitter leaked past the reorder gate)", i, at)
		}
	}
}

// TestRecycleReusesPacketsAndReleasesPayloads pins the recycling
// contract: with SetRecycle armed, a delivered (or dropped) packet's
// payload reaches the release hook exactly once — duplicates share one
// packet, so one release — and the struct is reused by a later Send.
func TestRecycleReusesPacketsAndReleasesPayloads(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(7), ClientToServer, LinkConfig{BandwidthBps: 1e9}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var released []any
	l.SetRecycle(new(pool.FreeList[Packet]), func(p any) { released = append(released, p) })
	delivered := 0
	l.SetDeliver(func(p *Packet) { delivered++ })

	l.Send(100, "a")
	sched.Run()
	if delivered != 1 || len(released) != 1 || released[0] != "a" {
		t.Fatalf("delivered=%d released=%v", delivered, released)
	}
	if l.pktFree.Len() != 1 {
		t.Fatalf("free list len = %d after delivery, want 1", l.pktFree.Len())
	}

	// A middlebox drop releases immediately, without scheduling.
	l.AddProcessor(ProcessorFunc(func(time.Duration, *Packet) Verdict { return Verdict{Drop: true} }))
	l.Send(100, "b")
	if len(released) != 2 || released[1] != "b" {
		t.Fatalf("drop did not release: %v", released)
	}
	if l.pktFree.Len() != 1 {
		t.Fatalf("free list len = %d after drop, want 1 (struct recycled synchronously)", l.pktFree.Len())
	}
}

// TestRecycleDuplicateSingleRelease forces duplication and checks the
// shared packet is released once, after the second delivery.
func TestRecycleDuplicateSingleRelease(t *testing.T) {
	sched := simtime.NewScheduler()
	l, err := NewLink(sched, simtime.NewRand(7), ClientToServer,
		LinkConfig{BandwidthBps: 1e9, DuplicateProb: 0.999999}, nil, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	releases, delivered := 0, 0
	l.SetRecycle(new(pool.FreeList[Packet]), func(any) { releases++ })
	l.SetDeliver(func(p *Packet) { delivered++ })
	l.Send(100, "dup")
	sched.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (duplicate)", delivered)
	}
	if releases != 1 {
		t.Fatalf("releases = %d, want exactly 1 for the shared packet", releases)
	}
}

// TestRecycleIdenticalOutcome runs the same jittery, lossy workload with
// and without recycling and requires identical stats and arrival times —
// recycling changes where structs live, never what the link does.
func TestRecycleIdenticalOutcome(t *testing.T) {
	run := func(recycle bool) (LinkStats, []time.Duration) {
		sched := simtime.NewScheduler()
		l, err := NewLink(sched, simtime.NewRand(99), ClientToServer, LinkConfig{
			BandwidthBps: 1e6, NaturalJitter: 3 * time.Millisecond,
			LossProb: 0.2, DuplicateProb: 0.1, QueueLimit: 4000,
		}, nil, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		if recycle {
			l.SetRecycle(new(pool.FreeList[Packet]), nil)
		}
		var arrivals []time.Duration
		l.SetDeliver(func(p *Packet) { arrivals = append(arrivals, sched.Now()) })
		for i := 0; i < 200; i++ {
			l.Send(1000, Background{})
		}
		sched.Run()
		return l.Stats(), arrivals
	}
	s1, a1 := run(false)
	s2, a2 := run(true)
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("arrival counts diverge: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d diverges: %v vs %v", i, a1[i], a2[i])
		}
	}
}

// TestRecyclingSendDeliverZeroAllocs pins that a recycling link's
// Send→drain→deliver cycle allocates nothing at steady state, with
// jittered and duplicated deliveries that overtake one another, both on
// a standalone link and through a FIFO bottleneck's shared drain lane.
func TestRecyclingSendDeliverZeroAllocs(t *testing.T) {
	for _, shared := range []bool{false, true} {
		sched := simtime.NewScheduler()
		p, err := NewPath(sched, simtime.NewRand(5), PathConfig{Link: LinkConfig{
			BandwidthBps: 1e8, PropDelay: time.Millisecond,
			NaturalJitter: 2 * time.Millisecond, ReorderProb: 0.3, DuplicateProb: 0.1,
		}}, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		if shared {
			b, err := NewBottleneck(sched, BottleneckConfig{BandwidthBps: 1e8}, instr.Bundle{})
			if err != nil {
				t.Fatal(err)
			}
			b.Attach(p)
		}
		p.SetRecycle(new(pool.FreeList[Packet]), nil)
		delivered := 0
		p.Connect(func(*Packet) { delivered++ }, func(*Packet) { delivered++ })
		burst := func() {
			for i := 0; i < 32; i++ {
				p.Send(ClientToServer, 1200, "seg")
			}
			sched.Run()
		}
		burst() // warm the packet and lane-entry free lists
		if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
			t.Fatalf("shared=%v: recycling Send→deliver allocates %.2f per burst, want 0", shared, allocs)
		}
		if st := p.Link(ClientToServer).Stats(); st.Duplicated == 0 || delivered != st.Sent+st.Duplicated {
			t.Fatalf("shared=%v: delivered %d of %+v", shared, delivered, st)
		}
	}
}
