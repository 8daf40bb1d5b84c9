// Package tcpsim implements an event-driven TCP over netsim links: enough
// of RFC 5681/6298 to reproduce the transport mechanics the paper's attack
// manipulates — slow start and congestion avoidance, duplicate-ACK fast
// retransmit with fast recovery, retransmission timeouts with exponential
// backoff and Karn-compliant RTT estimation, out-of-order reassembly, and
// connection failure after repeated timeouts ("broken connection", §IV-C).
//
// The implementation is deliberately a simulation, not a wire-compatible
// stack: sequence numbers are 64-bit (no wraparound handling), there is no
// SACK, and options are not encoded as bytes. Every simplification keeps
// the timing/ordering behaviour that matters to the attack.
package tcpsim

import (
	"fmt"
	"time"

	"h2privacy/internal/pool"
)

// HeaderOverhead is the per-segment IP+TCP header cost in bytes, used to
// compute on-the-wire packet sizes.
const HeaderOverhead = 40

// Flags mark TCP control bits on a segment.
type Flags uint8

// Segment control bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Has reports whether all bits in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders the set flags, e.g. "SYN|ACK".
func (f Flags) String() string {
	s := ""
	add := func(name string) {
		if s != "" {
			s += "|"
		}
		s += name
	}
	if f.Has(FlagSYN) {
		add("SYN")
	}
	if f.Has(FlagACK) {
		add("ACK")
	}
	if f.Has(FlagFIN) {
		add("FIN")
	}
	if f.Has(FlagRST) {
		add("RST")
	}
	if s == "" {
		s = "-"
	}
	return s
}

// Segment is one TCP segment as carried in a netsim packet payload.
type Segment struct {
	Flags   Flags
	Seq     uint64
	Ack     uint64
	Window  int
	Payload []byte
	// Retransmit marks segments re-sent by the sender. On-path observers
	// could infer this from sequence numbers; the flag is ground truth
	// for metrics and lets the capture monitor skip inference.
	Retransmit bool
}

// WireSize is the packet size on the wire: headers plus payload.
func (s *Segment) WireSize() int { return HeaderOverhead + len(s.Payload) }

// String formats the segment for traces.
func (s *Segment) String() string {
	return fmt.Sprintf("[%s seq=%d ack=%d len=%d rtx=%t]", s.Flags, s.Seq, s.Ack, len(s.Payload), s.Retransmit)
}

// State is the connection lifecycle state (simplified TCP state machine).
type State int

// Connection states.
const (
	StateIdle State = iota + 1
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateClosed // orderly close completed (FIN exchanged)
	StateBroken // reset or retry limit exceeded
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateListen:
		return "listen"
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	case StateBroken:
		return "broken"
	default:
		return "state?"
	}
}

// Config tunes a connection. The zero value is completed by applyDefaults.
type Config struct {
	// MSS is the maximum segment payload size. Default 1460.
	MSS int
	// InitCwndSegs is the initial congestion window in segments
	// (RFC 6928 initial window). Default 10.
	InitCwndSegs int
	// InitSsthresh is the initial slow-start threshold in bytes.
	// Default 1 MiB.
	InitSsthresh int
	// RecvWindow is the advertised receive window in bytes. Default 4 MiB.
	RecvWindow int
	// MinRTO clamps the retransmission timeout from below. Default 200 ms.
	MinRTO time.Duration
	// MaxRTO clamps the backed-off RTO from above. Default 2 s — far
	// below the RFC's 60 s ceiling, approximating the tail-loss-probe /
	// RACK behaviour of modern stacks, which keep probing a lossy path
	// every couple of seconds instead of idling through long backoffs.
	MaxRTO time.Duration
	// MaxRetries is the number of consecutive RTO expiries for the same
	// data before the connection is declared broken. Default 6.
	MaxRetries int
	// DupAckThreshold triggers fast retransmit. Default 3.
	DupAckThreshold int
	// DelayedAck enables RFC 1122 delayed acknowledgements on the
	// receive side: pure ACKs for in-order data are held until a second
	// segment arrives or DelAckTimeout passes. Out-of-order segments
	// still trigger immediate duplicate ACKs. Off by default (the
	// calibrated testbed models an immediate-ACK receiver).
	DelayedAck bool
	// DelAckTimeout is the delayed-ACK timer. Default 40 ms.
	DelAckTimeout time.Duration
	// DisableRACKWindow turns off the RACK-style reordering window: by
	// default, reaching the dup-ACK threshold arms fast retransmit after
	// a quarter-SRTT delay (clamped to [1 ms, 20 ms]) and cancels it if
	// the cumulative ACK advances first, so micro-reordering does not
	// trigger spurious retransmissions (RFC 8985's key idea). Large
	// reordering — like the adversary's tens-of-milliseconds jitter —
	// still outlasts the window and triggers the storm the paper
	// documents.
	DisableRACKWindow bool
	// Pool, when non-nil, arms trial-scoped memory recycling on pairs
	// built with NewPair: segment payloads (and the receiver's
	// out-of-order buffers) are rented from the arena, Segment structs
	// and netsim Packets go onto the arena's free lists, which every
	// pair on the worker shares, and packet recycling is installed on
	// the path so everything returns once the last delivery fires. The
	// arena is owned by the worker running the trial and is reused —
	// via its Reset contract — across that worker's trials. Pooling
	// changes where bytes live, never what they contain; byte-identity
	// with the unpooled path is pinned by tests.
	Pool *pool.Arena
}

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.InitCwndSegs == 0 {
		c.InitCwndSegs = 10
	}
	if c.InitSsthresh == 0 {
		c.InitSsthresh = 1 << 20
	}
	if c.RecvWindow == 0 {
		c.RecvWindow = 4 << 20
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 2 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 6
	}
	if c.DupAckThreshold == 0 {
		c.DupAckThreshold = 3
	}
	if c.DelAckTimeout == 0 {
		c.DelAckTimeout = 40 * time.Millisecond
	}
	return c
}

func (c Config) validate() error {
	if c.MSS < 64 {
		return fmt.Errorf("tcpsim: MSS %d too small", c.MSS)
	}
	if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO {
		return fmt.Errorf("tcpsim: invalid RTO bounds [%v, %v]", c.MinRTO, c.MaxRTO)
	}
	if c.MaxRetries < 1 || c.DupAckThreshold < 1 {
		return fmt.Errorf("tcpsim: MaxRetries and DupAckThreshold must be ≥ 1")
	}
	return nil
}

// Stats counts transport events on one connection endpoint. The paper's
// Table I and Fig. 5 report retransmission counts taken from here.
type Stats struct {
	SegmentsSent     int
	BytesSent        int64 // payload bytes, first transmissions only
	SegmentsReceived int
	BytesDelivered   int64 // in-order payload bytes handed to the app
	FastRetransmits  int
	TimeoutRetxSegs  int // segments re-sent due to RTO (go-back-N resends)
	TLPProbes        int // tail-loss probe retransmissions
	RTOExpiries      int
	DupAcksSent      int
	DupAcksReceived  int
	OutOfOrderSegs   int
	DuplicateSegs    int // segments entirely below rcvNxt
}

// Retransmits is the total number of retransmitted data segments.
func (s Stats) Retransmits() int { return s.FastRetransmits + s.TimeoutRetxSegs + s.TLPProbes }
