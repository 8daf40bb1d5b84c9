package tcpsim

import (
	"bytes"
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
)

// testNet bundles a scheduler, path and connection pair with data sinks.
type testNet struct {
	sched  *simtime.Scheduler
	path   *netsim.Path
	pair   *Pair
	toSrv  bytes.Buffer // bytes the server received
	toCli  bytes.Buffer // bytes the client received
	srvEOF bool
	cliEOF bool
}

func newTestNet(t *testing.T, link netsim.LinkConfig, cfg Config) *testNet {
	t.Helper()
	n := &testNet{sched: simtime.NewScheduler()}
	rng := simtime.NewRand(42)
	var err error
	n.path, err = netsim.NewPath(n.sched, rng, netsim.PathConfig{Link: link}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	n.pair, err = NewPair(n.sched, rng, n.path, cfg, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	n.pair.Server.OnData(func(p []byte) { n.toSrv.Write(p) })
	n.pair.Client.OnData(func(p []byte) { n.toCli.Write(p) })
	n.pair.Server.OnEOF(func() { n.srvEOF = true })
	n.pair.Client.OnEOF(func() { n.cliEOF = true })
	return n
}

func fastLink() netsim.LinkConfig {
	return netsim.LinkConfig{BandwidthBps: 1e9, PropDelay: 5 * time.Millisecond}
}

func TestHandshake(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	n.pair.Open()
	n.sched.Run()
	if got := n.pair.Client.State(); got != StateEstablished {
		t.Fatalf("client state = %v", got)
	}
	if got := n.pair.Server.State(); got != StateEstablished {
		t.Fatalf("server state = %v", got)
	}
	// Client's first RTT sample comes from the handshake-adjacent data;
	// at minimum the pre-handshake RTO must not have fired.
	if n.pair.Client.Err() != nil || n.pair.Server.Err() != nil {
		t.Fatalf("errors: %v / %v", n.pair.Client.Err(), n.pair.Server.Err())
	}
}

func TestSimpleTransferBothWays(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	n.pair.Open()
	req := bytes.Repeat([]byte("GET /index.html\n"), 4)
	resp := bytes.Repeat([]byte("x"), 100_000)
	n.sched.After(0, func() {
		if err := n.pair.Client.Write(req); err != nil {
			t.Errorf("client write: %v", err)
		}
	})
	n.sched.After(20*time.Millisecond, func() {
		if err := n.pair.Server.Write(resp); err != nil {
			t.Errorf("server write: %v", err)
		}
	})
	n.sched.Run()
	if !bytes.Equal(n.toSrv.Bytes(), req) {
		t.Fatalf("server received %d bytes, want %d", n.toSrv.Len(), len(req))
	}
	if !bytes.Equal(n.toCli.Bytes(), resp) {
		t.Fatalf("client received %d bytes, want %d", n.toCli.Len(), len(resp))
	}
	if n.pair.Server.Stats().Retransmits() != 0 {
		t.Fatalf("unexpected retransmits on clean link: %+v", n.pair.Server.Stats())
	}
}

func TestWriteBeforeEstablishedIsBuffered(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	n.pair.Open()
	// Write immediately, while the handshake is still in flight.
	if err := n.pair.Client.Write([]byte("early")); err != nil {
		t.Fatal(err)
	}
	n.sched.Run()
	if n.toSrv.String() != "early" {
		t.Fatalf("server got %q", n.toSrv.String())
	}
}

func TestLargeTransferSegmentation(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{MSS: 1000})
	n.pair.Open()
	data := make([]byte, 1_000_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	n.sched.After(0, func() { _ = n.pair.Server.Write(data) })
	n.sched.Run()
	if !bytes.Equal(n.toCli.Bytes(), data) {
		t.Fatalf("corrupted transfer: got %d bytes", n.toCli.Len())
	}
	st := n.pair.Server.Stats()
	if st.SegmentsSent < 1000 {
		t.Fatalf("sent %d segments for 1MB at MSS 1000", st.SegmentsSent)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	n.pair.Open()
	n.sched.After(0, func() { _ = n.pair.Server.Write(make([]byte, 500_000)) })
	n.sched.Run()
	srv := n.pair.Server
	if srv.Cwnd() <= srv.Config().InitCwndSegs*srv.Config().MSS {
		t.Fatalf("cwnd did not grow: %d", srv.Cwnd())
	}
}

func TestRandomLossRecovery(t *testing.T) {
	link := fastLink()
	link.LossProb = 0.02
	n := newTestNet(t, link, Config{})
	n.pair.Open()
	data := make([]byte, 400_000)
	for i := range data {
		data[i] = byte(i)
	}
	n.sched.After(0, func() { _ = n.pair.Server.Write(data) })
	n.sched.Run()
	if !bytes.Equal(n.toCli.Bytes(), data) {
		t.Fatalf("transfer under loss corrupted: got %d/%d bytes", n.toCli.Len(), len(data))
	}
	if n.pair.Server.Stats().Retransmits() == 0 {
		t.Fatal("expected retransmissions under 2% loss")
	}
}

func TestFastRetransmitOnReorder(t *testing.T) {
	// Delay exactly one data packet so it arrives well after its
	// successors: receiver dup-ACKs, sender fast-retransmits.
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(7)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: fastLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var delayed bool
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		if !delayed && len(seg.Payload) > 0 && !seg.Retransmit && seg.Seq > 0 && now > 20*time.Millisecond {
			delayed = true
			return netsim.Verdict{ExtraDelay: 100 * time.Millisecond}
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
	data := make([]byte, 300_000)
	sched.After(0, func() { _ = pair.Server.Write(data) })
	sched.Run()
	if got.Len() != len(data) {
		t.Fatalf("received %d bytes, want %d", got.Len(), len(data))
	}
	if pair.Server.Stats().FastRetransmits == 0 {
		t.Fatalf("expected a fast retransmit; stats=%+v", pair.Server.Stats())
	}
	if pair.Client.Stats().DupAcksSent < 3 {
		t.Fatalf("expected ≥3 dup-ACKs, got %d", pair.Client.Stats().DupAcksSent)
	}
}

func TestRTORecoveryOnBurstLoss(t *testing.T) {
	// Drop all server data packets for a window, forcing an RTO (not just
	// fast retransmit).
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(3)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: fastLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	dropUntil := 100 * time.Millisecond
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		return netsim.Verdict{Drop: len(seg.Payload) > 0 && now > 15*time.Millisecond && now < dropUntil}
	}))
	pair, err := NewPair(sched, rng, path, Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	pair.Client.OnData(func(p []byte) { got.Write(p) })
	pair.Open()
	data := make([]byte, 200_000)
	sched.After(0, func() { _ = pair.Server.Write(data) })
	sched.Run()
	if got.Len() != len(data) {
		t.Fatalf("received %d bytes, want %d", got.Len(), len(data))
	}
	st := pair.Server.Stats()
	if st.RTOExpiries == 0 {
		t.Fatalf("expected an RTO expiry; stats=%+v", st)
	}
	if pair.Server.Err() != nil {
		t.Fatalf("connection should have recovered: %v", pair.Server.Err())
	}
}

func TestBrokenAfterMaxRetries(t *testing.T) {
	// Kill the server→client direction entirely mid-transfer.
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(3)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: fastLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		return netsim.Verdict{Drop: now > 15*time.Millisecond}
	}))
	pair, err := NewPair(sched, rng, path, Config{MaxRetries: 3}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var states []State
	pair.Server.OnStateChange(func(s State) { states = append(states, s) })
	pair.Open()
	sched.After(0, func() { _ = pair.Server.Write(make([]byte, 100_000)) })
	sched.RunUntil(5 * time.Minute)
	if pair.Server.State() != StateBroken {
		t.Fatalf("server state = %v, want broken", pair.Server.State())
	}
	if pair.Server.Err() == nil {
		t.Fatal("broken connection must carry an error")
	}
	if len(states) == 0 || states[len(states)-1] != StateBroken {
		t.Fatalf("state transitions = %v", states)
	}
}

func TestRTOBackoffDoubles(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(3)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: fastLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	// Black-hole data after handshake.
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		return netsim.Verdict{Drop: len(seg.Payload) > 0}
	}))
	pair, err := NewPair(sched, rng, path, Config{MaxRetries: 4, MinRTO: 200 * time.Millisecond}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	pair.Open()
	sched.After(0, func() { _ = pair.Server.Write(make([]byte, 5000)) })
	sched.RunUntil(time.Minute)
	st := pair.Server.Stats()
	if st.RTOExpiries != 5 { // MaxRetries+1: the last one declares failure
		t.Fatalf("RTO expiries = %d, want 5", st.RTOExpiries)
	}
	if pair.Server.State() != StateBroken {
		t.Fatalf("state = %v, want broken", pair.Server.State())
	}
	if pair.Server.RTO() < 1600*time.Millisecond {
		t.Fatalf("RTO after 4 backoffs = %v, want ≥ 1.6s", pair.Server.RTO())
	}
}

func TestAbortSendsRSTAndBreaksPeer(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	n.pair.Open()
	n.sched.After(20*time.Millisecond, func() { n.pair.Client.Abort() })
	n.sched.Run()
	if n.pair.Client.State() != StateBroken {
		t.Fatalf("client state = %v", n.pair.Client.State())
	}
	if n.pair.Server.State() != StateBroken {
		t.Fatalf("server state = %v, want broken (RST received)", n.pair.Server.State())
	}
}

func TestOrderlyClose(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	n.pair.Open()
	n.sched.After(0, func() {
		_ = n.pair.Client.Write([]byte("bye"))
		n.pair.Client.CloseSend()
	})
	n.sched.After(50*time.Millisecond, func() { n.pair.Server.CloseSend() })
	n.sched.Run()
	if n.toSrv.String() != "bye" {
		t.Fatalf("server got %q", n.toSrv.String())
	}
	if !n.srvEOF || !n.cliEOF {
		t.Fatalf("EOF flags: server=%t client=%t", n.srvEOF, n.cliEOF)
	}
	if n.pair.Client.State() != StateClosed || n.pair.Server.State() != StateClosed {
		t.Fatalf("states: %v / %v", n.pair.Client.State(), n.pair.Server.State())
	}
}

func TestWriteAfterCloseSendFails(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{})
	n.pair.Open()
	n.sched.After(0, func() {
		n.pair.Client.CloseSend()
		if err := n.pair.Client.Write([]byte("x")); err == nil {
			t.Error("write after CloseSend succeeded")
		}
	})
	n.sched.Run()
}

func TestSynRetransmission(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(3)
	path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: fastLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	path.Link(netsim.ClientToServer).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*Segment)
		if seg.Flags.Has(FlagSYN) && dropped < 2 {
			dropped++
			return netsim.Verdict{Drop: true}
		}
		return netsim.Verdict{}
	}))
	pair, err := NewPair(sched, rng, path, Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	pair.Open()
	sched.RunUntil(time.Minute)
	if pair.Client.State() != StateEstablished {
		t.Fatalf("client state = %v after SYN drops", pair.Client.State())
	}
	if dropped != 2 {
		t.Fatalf("dropped %d SYNs, want 2", dropped)
	}
}

func TestRTTEstimate(t *testing.T) {
	n := newTestNet(t, fastLink(), Config{}) // 5ms each way → RTT ≈ 10ms
	n.pair.Open()
	n.sched.After(0, func() { _ = n.pair.Server.Write(make([]byte, 50_000)) })
	n.sched.Run()
	srtt := n.pair.Server.SRTT()
	if srtt < 9*time.Millisecond || srtt > 20*time.Millisecond {
		t.Fatalf("SRTT = %v, want ≈10ms", srtt)
	}
}

func TestConfigValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	if _, err := NewConn(sched, Config{MSS: 10}, instr.Bundle{}, "x", 0, func(*Segment) {}); err == nil {
		t.Fatal("tiny MSS accepted")
	}
	if _, err := NewConn(sched, Config{MinRTO: time.Second, MaxRTO: time.Millisecond}, instr.Bundle{}, "x", 0, func(*Segment) {}); err == nil {
		t.Fatal("inverted RTO bounds accepted")
	}
	if _, err := NewConn(nil, Config{}, instr.Bundle{}, "x", 0, func(*Segment) {}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewConn(sched, Config{}, instr.Bundle{}, "x", 0, nil); err == nil {
		t.Fatal("nil transmit accepted")
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SYN|ACK" {
		t.Fatalf("got %q", s)
	}
	if s := Flags(0).String(); s != "-" {
		t.Fatalf("got %q", s)
	}
	if s := (FlagFIN | FlagRST).String(); s != "FIN|RST" {
		t.Fatalf("got %q", s)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateIdle: "idle", StateListen: "listen", StateSynSent: "syn-sent",
		StateSynRcvd: "syn-rcvd", StateEstablished: "established",
		StateClosed: "closed", StateBroken: "broken", State(0): "state?",
	} {
		if st.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestSegmentWireSize(t *testing.T) {
	seg := &Segment{Payload: make([]byte, 100)}
	if seg.WireSize() != 140 {
		t.Fatalf("WireSize = %d, want 140", seg.WireSize())
	}
}

// establishedWriter returns a server-side Conn, established by hand,
// whose segments go straight back to the pool as after a lossless
// delivery, and a write/ack cycle over it: each cycle writes a chunk,
// advances the clock by gap and acks all but the chunk just written, so
// every Write appends behind a live tail and every ACK re-arms the
// retransmission timers. The cycle has run 100 times to warm the arena
// and the segment free list.
func establishedWriter(t *testing.T, cfg Config, gap time.Duration) (c *Conn, chunk []byte, cycle func()) {
	t.Helper()
	sched := simtime.NewScheduler()
	arena := pool.New()
	segs := newSegPool(arena)
	cfg.Pool = arena
	c, err := NewConn(sched, cfg, instr.Bundle{}, "server", 1000, func(seg *Segment) { segs.release(seg) })
	if err != nil {
		t.Fatal(err)
	}
	c.segs = segs
	c.Listen()
	c.Deliver(&Segment{Flags: FlagSYN, Seq: 0, Window: 1 << 20})
	c.Deliver(&Segment{Flags: FlagACK, Seq: 1, Ack: c.sndNxt, Window: 1 << 20})
	if c.State() != StateEstablished {
		t.Fatalf("state = %v, want established", c.State())
	}
	chunk = make([]byte, 1000)
	ack := &Segment{Flags: FlagACK, Seq: 1, Window: 1 << 20}
	cycle = func() {
		if err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
		sched.RunUntil(sched.Now() + gap)
		ack.Ack = c.sndNxt - uint64(len(chunk))
		c.Deliver(ack)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	return c, chunk, cycle
}

// TestSteadyWriteAckReusesSendBuffer drives a sender through a steady
// write/partial-ack cycle and pins that the send buffer's acked prefix is
// reclaimed rather than stranded, and that with pooled segments and
// payloads and an in-place RTO re-arm the cycle allocates nothing.
func TestSteadyWriteAckReusesSendBuffer(t *testing.T) {
	c, chunk, cycle := establishedWriter(t, Config{DisableRACKWindow: true}, 0)
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 0 {
		t.Fatalf("steady write/ack cycle allocates %.2f times, want 0", allocs)
	}
	if c.Buffered() != len(chunk) {
		t.Fatalf("buffered = %d, want %d", c.Buffered(), len(chunk))
	}
	// Never more than two chunks are live, so a reclaiming buffer stays
	// small; one that only ever appends grows without bound.
	if n := cap(c.sendBuf); n > 4*len(chunk) {
		t.Fatalf("send buffer capacity grew to %d bytes for %d live", n, c.Buffered())
	}
}

// TestSteadyWriteAckRearmsTimersWithoutAllocating pins the timer half of
// the steady cycle: with RTT samples taken (the clock advances between
// write and ACK), every ACK re-arms both the RTO and the tail-loss probe,
// and neither re-arm allocates.
func TestSteadyWriteAckRearmsTimersWithoutAllocating(t *testing.T) {
	c, _, cycle := establishedWriter(t, Config{}, time.Millisecond)
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 0 {
		t.Fatalf("steady write/ack cycle allocates %.2f times, want 0", allocs)
	}
	if c.srtt == 0 || !c.rtoTimer.Pending() || !c.ptoTimer.Pending() {
		t.Fatalf("srtt=%v rto pending=%v pto pending=%v; want both timers armed by the last ACK",
			c.srtt, c.rtoTimer.Pending(), c.ptoTimer.Pending())
	}
	if c.stats.TLPProbes != 0 || c.stats.RTOExpiries != 0 {
		t.Fatalf("timers fired during a lossless cycle: %+v", c.stats)
	}
}

// TestWarmArenaSendBufferFreeAcrossPairs carries a 22 KB response, the
// size of a fleet decoy page, over a fresh pair per response, as a fleet
// worker does over one arena. Once the arena is warm, a pair's send
// buffer is rented and returned rather than allocated: the bytes a
// whole pair allocates stay below the response size.
func TestWarmArenaSendBufferFreeAcrossPairs(t *testing.T) {
	arena := pool.New()
	resp := bytes.Repeat([]byte("x"), 22<<10)
	var last *testNet
	transfer := func() {
		n := newTestNet(t, fastLink(), Config{Pool: arena})
		last = n
		got := 0
		n.pair.Client.OnData(func(p []byte) { got += len(p) })
		n.pair.Open()
		n.sched.After(0, func() {
			for off := 0; off < len(resp); off += 1200 {
				if err := n.pair.Server.Write(resp[off:min(off+1200, len(resp))]); err != nil {
					t.Fatal(err)
				}
			}
		})
		n.sched.Run()
		if got != len(resp) {
			t.Fatalf("client got %d of %d bytes", got, len(resp))
		}
	}
	for i := 0; i < 4; i++ {
		transfer()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		transfer()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= uint64(len(resp)) {
		t.Fatalf("a warm-arena pair carrying %d bytes allocates %d bytes", len(resp), per)
	}
	if last.pair.Server.sendBuf != nil {
		t.Fatal("a fully acked send buffer was kept, not returned to the arena")
	}
}

// TestUnpooledSendBufferGrowsGeometrically writes 1 MiB in 1,200-byte
// chunks to a conn with no arena that cannot send yet, so every byte
// stays buffered. Growth must at least double each time: O(log n)
// allocations, never one per chunk.
func TestUnpooledSendBufferGrowsGeometrically(t *testing.T) {
	chunk := make([]byte, 1200)
	const total = 1 << 20
	c, err := NewConn(simtime.NewScheduler(), Config{}, instr.Bundle{}, "server", 1000, func(*Segment) {})
	if err != nil {
		t.Fatal(err)
	}
	// A collection during the loop would add the runtime's own
	// allocations to the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < total; n += len(chunk) {
		if err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if c.Buffered() < total {
		t.Fatalf("buffered %d bytes, want at least %d", c.Buffered(), total)
	}
	// The first chunk's buffer, then one per doubling up to 1 MiB: 11
	// buffers. Twice that leaves room for the runtime's own allocations,
	// while regrowth by a fixed step would take hundreds.
	want := 2 * (1 + bits.Len(uint(total/len(chunk))))
	if allocs := after.Mallocs - before.Mallocs; allocs > uint64(want) {
		t.Fatalf("writing %d bytes in %d-byte chunks allocates %d times, want at most %d",
			total, len(chunk), allocs, want)
	}
}
