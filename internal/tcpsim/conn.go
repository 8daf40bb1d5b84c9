package tcpsim

import (
	"fmt"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/instr"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
	"h2privacy/internal/trace"
)

// Conn is one endpoint of a simulated TCP connection. It is event-driven:
// the network calls Deliver for each arriving segment, the application
// calls Write/CloseSend/Abort, and the connection emits outgoing segments
// through the transmit function given at construction. All activity runs
// on the shared simtime.Scheduler, so a Conn needs no locking.
type Conn struct {
	sched *simtime.Scheduler
	cfg   Config
	name  string
	out   func(*Segment)

	state   State
	onState func(State)
	onData  func([]byte)
	onEOF   func()
	onDrain func()
	failure error

	// Sender state.
	iss        uint64
	sndUna     uint64
	sndNxt     uint64
	maxSndNxt  uint64 // highest sndNxt ever reached; resends below it are retransmits
	sendBuf    []byte // [sendOff:] holds the unacked+unsent bytes, base sequence sndUna
	sendOff    int    // acked prefix of sendBuf, reclaimed on the next Write that needs room
	cwnd       int
	ssthresh   int
	peerWnd    int
	dupAcks    int
	inRecovery bool
	recoverPt  uint64
	retries    int
	finQueued  bool
	finSent    bool
	finSeq     uint64
	finAcked   bool

	// RTT estimation (Karn's algorithm: samples invalidated on any
	// retransmission).
	srtt       time.Duration
	rttvar     time.Duration
	rto        time.Duration
	rttPending bool
	rttSeq     uint64
	rttSentAt  time.Duration
	rtoTimer   simtime.Timer
	rackTimer  simtime.Timer // pending fast retransmit (reordering window)
	ptoTimer   simtime.Timer // tail-loss probe (RFC 8985 §7.2)

	// Receiver state.
	rcvNxt      uint64
	ooo         []oooChunk // buffered future data, ascending by seq
	oooBytes    int
	delAckTimer simtime.Timer
	delAckCount int
	hasPeerFin  bool
	peerFinSeq  uint64
	eofSent     bool

	// Trial-scoped recycling (nil without Config.Pool): segs free-lists
	// outgoing Segment structs (shared with the peer via NewPair), arena
	// rents payload, out-of-order and send buffers. Both are nil-safe.
	segs  *segPool
	arena *pool.Arena

	rackHole uint64 // sndUna snapshot the armed rack timer guards

	stats Stats

	tr *trace.Tracer

	ck *check.Checker // nil unless invariant checks are armed
}

// NewConn builds an endpoint. name tags errors and traces ("client",
// "server"). iss is the initial send sequence number. out transmits a
// segment onto the network and must be non-nil. ins.Trace arms transport
// tracing (RTO fires, fast retransmits, tail-loss probes, SRTT samples)
// and ins.Check the sequence-space invariant checkers: conservation of
// delivered bytes, ACK bounds, and sndNxt/rcvNxt monotonicity outside RTO
// rewinds.
func NewConn(sched *simtime.Scheduler, cfg Config, ins instr.Bundle, name string, iss uint64, out func(*Segment)) (*Conn, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sched == nil || out == nil {
		return nil, fmt.Errorf("tcpsim: NewConn requires scheduler and transmit function")
	}
	c := &Conn{
		sched:    sched,
		cfg:      cfg,
		name:     name,
		out:      out,
		state:    StateIdle,
		iss:      iss,
		cwnd:     cfg.InitCwndSegs * cfg.MSS,
		ssthresh: cfg.InitSsthresh,
		peerWnd:  cfg.RecvWindow,
		rto:      time.Second, // conservative pre-handshake RTO (RFC 6298 §2)
		arena:    cfg.Pool,
		tr:       ins.Trace,
		ck:       ins.Check,
	}
	// The timers are bound once and re-armed in place: RTO and PTO
	// re-arm on every ACK, so re-arming must neither build a closure nor
	// allocate an event.
	c.rtoTimer.Init(sched, c.onRTO)
	c.ptoTimer.Init(sched, c.onPTO)
	c.rackTimer.Init(sched, c.onRack)
	c.delAckTimer.Init(sched, c.onDelAck)
	c.ck.TCPRegister(name, iss)
	return c, nil
}

// State reports the current connection state.
func (c *Conn) State() State { return c.state }

// Err returns why the connection broke, or nil.
func (c *Conn) Err() error { return c.failure }

// Stats returns a copy of the endpoint counters.
func (c *Conn) Stats() Stats { return c.stats }

// Config returns the effective (defaulted) configuration.
func (c *Conn) Config() Config { return c.cfg }

// RTO reports the current retransmission timeout (useful to observe the
// client backing off after the adversary's loss phase, §IV-D).
func (c *Conn) RTO() time.Duration { return c.rto }

// SRTT reports the smoothed round-trip estimate (zero before first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Cwnd reports the current congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cwnd }

// Buffered reports bytes accepted by Write but not yet acknowledged.
func (c *Conn) Buffered() int { return len(c.sendBuf) - c.sendOff }

// OnStateChange registers a callback invoked after every state transition.
func (c *Conn) OnStateChange(fn func(State)) { c.onState = fn }

// OnData registers the in-order payload delivery callback.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnEOF registers a callback for the peer's orderly close (FIN).
func (c *Conn) OnEOF(fn func()) { c.onEOF = fn }

// OnSendBufDrain registers a callback invoked whenever acknowledgements
// shrink the send buffer — applications use it with Buffered to apply
// socket-style backpressure.
func (c *Conn) OnSendBufDrain(fn func()) { c.onDrain = fn }

// Listen puts an idle endpoint into the passive-open state.
func (c *Conn) Listen() {
	if c.state != StateIdle {
		panic("tcpsim: Listen on non-idle connection")
	}
	c.setState(StateListen)
}

// Connect starts the active open (sends SYN).
func (c *Conn) Connect() {
	if c.state != StateIdle {
		panic("tcpsim: Connect on non-idle connection")
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.maxSndNxt = c.sndNxt
	c.setState(StateSynSent)
	c.transmit(c.makeSeg(FlagSYN, c.iss, 0, c.advertisedWindow(), nil, false))
	c.armRTO()
}

// Write queues application bytes for transmission. Bytes are copied.
// Writing on a closed/broken connection returns an error; the HTTP layers
// above surface it as a transport failure.
func (c *Conn) Write(p []byte) error {
	switch c.state {
	case StateClosed, StateBroken:
		return fmt.Errorf("tcpsim: %s: write on %s connection", c.name, c.state)
	}
	if c.finQueued {
		return fmt.Errorf("tcpsim: %s: write after CloseSend", c.name)
	}
	if len(c.sendBuf)+len(p) > cap(c.sendBuf) {
		c.makeSendRoom(len(p))
	}
	c.sendBuf = append(c.sendBuf, p...)
	c.trySend()
	return nil
}

// makeSendRoom makes sendBuf's capacity hold n more bytes behind the
// unacked tail. Acks advance sendOff rather than reslicing forward, which
// would strand the consumed capacity; when the tail fits, the acked
// prefix is reclaimed in place. Otherwise the tail moves to a buffer
// rented from the arena at no less than double the capacity, so growth
// stays geometric with or without an arena, and the old buffer goes
// back.
func (c *Conn) makeSendRoom(n int) {
	old, live := c.sendBuf, c.sendBuf[c.sendOff:]
	if need := len(live) + n; need > cap(old) {
		buf := c.arena.Bytes(max(need, 2*cap(old)))
		c.sendBuf = buf[:copy(buf, live)]
		c.arena.Put(old)
	} else {
		c.sendBuf = old[:copy(old, live)]
	}
	c.sendOff = 0
}

// retireSendBuf empties the send buffer once every byte in it is acked.
// With an arena the buffer goes back to it, so a fleet's idle conns hold
// none and the busy ones share a few per worker; without one the conn
// keeps it for its next Write.
func (c *Conn) retireSendBuf() {
	if c.arena != nil {
		c.arena.Put(c.sendBuf)
		c.sendBuf = nil
	} else {
		c.sendBuf = c.sendBuf[:0]
	}
	c.sendOff = 0
}

// CloseSend queues an orderly close: a FIN is sent once all buffered data
// has been transmitted.
func (c *Conn) CloseSend() {
	if c.finQueued || c.state == StateClosed || c.state == StateBroken {
		return
	}
	c.finQueued = true
	c.trySend()
}

// Abort sends a RST and declares the connection broken. This models the
// browser giving up on a dead transport.
func (c *Conn) Abort() {
	if c.state == StateClosed || c.state == StateBroken {
		return
	}
	c.transmit(c.makeSeg(FlagRST, c.sndNxt, c.rcvNxt, 0, nil, false))
	c.fail(fmt.Errorf("tcpsim: %s: connection aborted locally", c.name))
}

// Deliver feeds a segment that arrived from the network.
func (c *Conn) Deliver(seg *Segment) {
	if seg == nil {
		return
	}
	c.stats.SegmentsReceived++
	if seg.Flags.Has(FlagRST) {
		if c.state != StateClosed && c.state != StateBroken {
			c.fail(fmt.Errorf("tcpsim: %s: connection reset by peer", c.name))
		}
		return
	}
	switch c.state {
	case StateListen:
		if seg.Flags.Has(FlagSYN) {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = c.iss
			c.sndNxt = c.iss + 1
			c.maxSndNxt = c.sndNxt
			if seg.Window > 0 {
				c.peerWnd = seg.Window
			}
			c.setState(StateSynRcvd)
			c.transmit(c.makeSeg(FlagSYN|FlagACK, c.iss, c.rcvNxt, c.advertisedWindow(), nil, false))
			c.armRTO()
		}
	case StateSynSent:
		if seg.Flags.Has(FlagSYN|FlagACK) && seg.Ack == c.sndNxt {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.retries = 0
			c.disarmRTO()
			if seg.Window > 0 {
				c.peerWnd = seg.Window
			}
			c.setState(StateEstablished)
			c.sendAck(false)
			c.trySend()
		}
	case StateSynRcvd:
		if seg.Flags.Has(FlagACK) && seg.Ack == c.sndNxt {
			c.sndUna = seg.Ack
			c.retries = 0
			c.disarmRTO()
			c.setState(StateEstablished)
			c.trySend()
		}
		c.processEstablished(seg)
	case StateEstablished:
		c.processEstablished(seg)
	case StateClosed, StateBroken, StateIdle:
		// Late segments after close are ignored.
	}
}

func (c *Conn) processEstablished(seg *Segment) {
	if c.state != StateEstablished && c.state != StateSynRcvd {
		return
	}
	if seg.Flags.Has(FlagACK) {
		c.processAck(seg)
		if c.ck.Enabled() {
			c.ck.TCPAck(c.name, seg.Ack, c.sndUna)
		}
	}
	if len(seg.Payload) > 0 || seg.Flags.Has(FlagFIN) {
		c.processData(seg)
	}
}

func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	c.state = s
	if c.onState != nil {
		c.onState(s)
	}
}

func (c *Conn) fail(err error) {
	c.failure = err
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerTCP, "broken", trace.Str("conn", c.name), trace.Str("err", err.Error()))
	}
	c.disarmRTO()
	c.disarmPTO()
	c.cancelDelAck()
	c.rackTimer.Stop()
	c.setState(StateBroken)
}

func (c *Conn) advertisedWindow() int {
	w := c.cfg.RecvWindow - c.oooBytes
	if w < 0 {
		w = 0
	}
	return w
}

// makeSeg assembles an outgoing segment, recycled from the pair's
// segment pool when one is armed (plain allocation otherwise). The
// caller hands it to transmit and must not touch it afterwards: once
// pooling is on, the network layer reclaims it after final delivery.
func (c *Conn) makeSeg(flags Flags, seq, ack uint64, window int, payload []byte, rtx bool) *Segment {
	seg := c.segs.get()
	seg.Flags, seg.Seq, seg.Ack, seg.Window, seg.Payload, seg.Retransmit =
		flags, seq, ack, window, payload, rtx
	return seg
}

func (c *Conn) transmit(seg *Segment) {
	if c.ck.Enabled() && !seg.Flags.Has(FlagRST) {
		end := seg.Seq + uint64(len(seg.Payload))
		if seg.Flags.Has(FlagSYN) {
			end++
		}
		if seg.Flags.Has(FlagFIN) {
			end++
		}
		c.ck.TCPSegment(c.name, seg.Seq, end, seg.Retransmit)
	}
	c.out(seg)
}

func (c *Conn) sendAck(isDup bool) {
	if isDup {
		c.stats.DupAcksSent++
	}
	c.cancelDelAck()
	c.transmit(c.makeSeg(FlagACK, c.sndNxt, c.rcvNxt, c.advertisedWindow(), nil, false))
}

// sendAckMaybeDelayed applies RFC 1122 delayed acknowledgements when
// enabled: ACK every second in-order segment, or after the timer.
func (c *Conn) sendAckMaybeDelayed() {
	if !c.cfg.DelayedAck {
		c.sendAck(false)
		return
	}
	c.delAckCount++
	if c.delAckCount >= 2 {
		c.sendAck(false)
		return
	}
	if !c.delAckTimer.Pending() {
		c.delAckTimer.Reset(c.sched.Now() + c.cfg.DelAckTimeout)
	}
}

// onDelAck fires the delayed-ACK timer.
func (c *Conn) onDelAck() {
	if c.delAckCount > 0 {
		c.sendAck(false)
	}
}

func (c *Conn) cancelDelAck() {
	c.delAckCount = 0
	c.delAckTimer.Stop()
}
