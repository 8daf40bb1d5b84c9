// Package check is the runtime invariant subsystem for the simulation
// stack. A *Checker is armed per trial and threaded through the same
// configuration points as the tracer (tcpsim.Config, h2.Config,
// netsim.PathConfig, core.TrialConfig, ...). Each layer calls cheap hook
// methods with scalar arguments; the checker shadows the protocol state
// independently and records a Violation whenever the real implementation
// and the shadow disagree.
//
// Like internal/trace, a nil *Checker is the disabled subsystem: every
// hook is nil-receiver safe, costs one pointer comparison, and allocates
// nothing. Detail strings are only built when a violation actually fires.
//
// The package deliberately imports nothing from the rest of the module so
// that every layer (simtime excepted, which stays dependency-free and is
// wired via a plain func hook) can import it without cycles.
package check

import (
	"fmt"
	"sync"
	"time"
)

// Directions for the link and capture hooks. They mirror
// netsim.ClientToServer / netsim.ServerToClient without importing netsim.
const (
	DirC2S uint8 = 0
	DirS2C uint8 = 1
)

// Drop fate categories for LinkDropped, mirroring the link's stats fields.
const (
	DropPolicy uint8 = iota // dropped by the adversary's packet processor
	DropFault               // dropped by an injected fault (blackout / burst-loss episode)
	DropLoss                // natural random loss
	DropQueue               // queue overflow
)

// RFC 7540 frame type values, as passed by the h2 hooks.
const (
	frameData         uint8 = 0x0
	frameHeaders      uint8 = 0x1
	frameRSTStream    uint8 = 0x3
	framePushPromise  uint8 = 0x5
	frameWindowUpdate uint8 = 0x8
)

const flagEndStream = 0x1

// maxPerTrial caps the violations retained with full detail per trial;
// further violations are still counted.
const maxPerTrial = 32

// Checker is a per-trial invariant checker. The zero value is not usable;
// construct with New. A nil *Checker is the disabled subsystem.
type Checker struct {
	seed  int64
	trial int
	exp   string
	rec   *Recorder
	clock func() time.Duration
	mu    *sync.Mutex // non-nil only in Concurrent mode (wall-clock servers)

	total      int
	violations []Violation

	tcp   map[string]*tcpShadow
	h2    map[string]*h2Shadow
	hpack [2][]int // FIFO of encoder table sizes, indexed by sender role (0=client,1=server)

	links [2]linkShadow
	caps  [2]capShadow
	aggs  [2]aggShadow

	// Adversary interference-budget shadow: which fleet flows currently
	// hold a slot, and the configured cap.
	budgetCap    int
	budgetActive map[int]bool
	budgetPeak   int

	lastAt  time.Duration
	stepped bool
}

type tcpShadow struct {
	name string
	// freshHigh is the exclusive high-water mark of first-transmission
	// sequence space: every byte below it has been sent at least once, and
	// fresh (non-retransmit) segments may only begin exactly at it.
	freshHigh uint64
	peer      *tcpShadow
	maxSndUna uint64
	haveAck   bool
	maxRcvNxt uint64
	haveRcv   bool
	rewinds   int
}

type h2Shadow struct {
	name     string
	isClient bool
	// Flow-control shadows, recomputed from frames alone.
	connSend int64
	connRecv int64
	peerInit int64 // peer's advertised SETTINGS_INITIAL_WINDOW_SIZE (governs our send windows)
	myInit   int64
	streams  map[uint32]*h2StreamShadow
}

type h2StreamShadow struct {
	opened    bool
	resLocal  bool // reserved by a PUSH_PROMISE we sent
	resRemote bool // reserved by a PUSH_PROMISE we received
	sentES    bool
	recvES    bool
	sentRST   bool
	recvRST   bool
	sendWin   int64
	recvWin   int64
}

type linkShadow struct {
	offeredPkts   int
	forwardedPkts int
	dupPkts       int
	deliveredPkts int
	droppedPkts   [4]int
	offeredBytes  int64
	forwardBytes  int64
	deliverBytes  int64
	droppedBytes  int64
}

func (l *linkShadow) droppedTotal() int {
	return l.droppedPkts[0] + l.droppedPkts[1] + l.droppedPkts[2] + l.droppedPkts[3]
}

// aggShadow tallies admissions to a shared bottleneck, one direction.
// armed distinguishes "no bottleneck in this trial" from "a bottleneck
// that admitted nothing".
type aggShadow struct {
	armed    bool
	fwdPkts  int
	fwdBytes int64
}

type capShadow struct {
	init     bool
	nextSeq  uint64
	appended int64
	parsed   int64
}

// New returns an armed checker for one trial. seed and trial identify the
// trial in violation reports (trial is the flat index within a sweep; 0
// for single runs). rec may be nil; Finalize then only returns the count
// and violations stay retrievable via Violations.
func New(seed int64, trial int, rec *Recorder) *Checker {
	return &Checker{
		seed:  seed,
		trial: trial,
		rec:   rec,
		tcp:   make(map[string]*tcpShadow),
		h2:    make(map[string]*h2Shadow),
	}
}

// SetExperiment stamps every violation this checker records with the id
// of the experiment that owns the trial, so report-time repro commands can
// name it. Safe on nil.
func (c *Checker) SetExperiment(id string) {
	if c == nil {
		return
	}
	c.exp = id
}

// Enabled reports whether the checker is armed. Safe on nil.
func (c *Checker) Enabled() bool { return c != nil }

// SetClock installs the virtual-clock source used to stamp violations
// (typically the scheduler's Now). Safe on nil.
func (c *Checker) SetClock(clock func() time.Duration) {
	if c == nil {
		return
	}
	c.clock = clock
}

// Concurrent switches the checker to mutex-protected mode for wall-clock
// use (h2serve), where hooks fire from multiple goroutines. The
// single-threaded simulator never needs this. Safe on nil.
func (c *Checker) Concurrent() {
	if c == nil {
		return
	}
	c.mu = &sync.Mutex{}
}

func (c *Checker) lock() {
	if c.mu != nil {
		c.mu.Lock()
	}
}

func (c *Checker) unlock() {
	if c.mu != nil {
		c.mu.Unlock()
	}
}

func (c *Checker) now() time.Duration {
	if c.clock != nil {
		return c.clock()
	}
	return c.lastAt
}

// violate records a violation. format/args are only evaluated here, on the
// failure path, so healthy trials never build detail strings.
func (c *Checker) violate(layer, rule, format string, args ...any) {
	c.total++
	if len(c.violations) >= maxPerTrial {
		return
	}
	c.violations = append(c.violations, Violation{
		Experiment: c.exp,
		Layer:      layer,
		Rule:       rule,
		Detail:     fmt.Sprintf(format, args...),
		At:         c.now(),
		TrialSeed:  c.seed,
		TrialIndex: c.trial,
	})
}

// Violations returns a copy of the retained violations. Safe on nil.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	c.lock()
	defer c.unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Total returns the number of violations recorded so far (including ones
// beyond the retention cap). Safe on nil.
func (c *Checker) Total() int {
	if c == nil {
		return 0
	}
	c.lock()
	defer c.unlock()
	return c.total
}

// Finalize runs the end-of-trial invariants, flushes the trial's
// violations into the Recorder (if any), and returns the total violation
// count for the trial. Safe on nil (returns 0).
func (c *Checker) Finalize() int {
	if c == nil {
		return 0
	}
	c.lock()
	for dir := range c.links {
		l := &c.links[dir]
		if l.offeredPkts != l.forwardedPkts+l.droppedTotal() {
			c.violate("netsim", "link-conservation",
				"dir=%d offered=%d forwarded=%d dropped=%d at trial end",
				dir, l.offeredPkts, l.forwardedPkts, l.droppedTotal())
		}
		if l.deliveredPkts > l.forwardedPkts+l.dupPkts {
			c.violate("netsim", "delivered-unforwarded",
				"dir=%d delivered=%d > forwarded=%d + dup=%d",
				dir, l.deliveredPkts, l.forwardedPkts, l.dupPkts)
		}
	}
	total := c.total
	violations := c.violations
	c.unlock()
	if c.rec != nil {
		c.rec.absorb(total, violations)
	}
	return total
}

// Abandon flushes whatever violations a dead trial recorded before it
// panicked or tripped a watchdog, WITHOUT running the end-of-trial
// invariants: conservation checks assume the trial drained cleanly and
// would fire spuriously on mid-flight state (packets still queued on a
// link read as offered-but-unaccounted). Violations recorded before the
// failure are real evidence — often the cause — so they reach the
// Recorder; the trial's failure itself is reported by the sweep
// supervisor, not here. A dead trial with zero violations flushes
// nothing — it never counts as a checked trial in the recorder's
// summary. Returns the flushed total. Safe on nil.
func (c *Checker) Abandon() int {
	if c == nil {
		return 0
	}
	c.lock()
	total := c.total
	violations := c.violations
	c.unlock()
	if c.rec != nil && total > 0 {
		c.rec.absorb(total, violations)
	}
	return total
}

// ---------------------------------------------------------------------------
// tcpsim hooks

// TCPRegister announces an endpoint and its initial send sequence number.
func (c *Checker) TCPRegister(name string, iss uint64) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	c.tcp[name] = &tcpShadow{name: name, freshHigh: iss}
}

// TCPPeers links two registered endpoints so delivered bytes can be
// cross-checked against what the peer actually sent.
func (c *Checker) TCPPeers(a, b string) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	sa, sb := c.tcp[a], c.tcp[b]
	if sa != nil && sb != nil {
		sa.peer, sb.peer = sb, sa
	}
}

// TCPSegment observes a transmitted (non-RST) segment occupying sequence
// space [seq, end). SYN and FIN each occupy one unit, included in end.
func (c *Checker) TCPSegment(name string, seq, end uint64, retransmit bool) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	s := c.tcp[name]
	if s == nil {
		return
	}
	if seq > s.freshHigh {
		c.violate("tcpsim", "seq-gap",
			"%s sent seq=%d beyond contiguous coverage %d (skipped bytes)",
			name, seq, s.freshHigh)
	}
	if !retransmit && end > seq && end <= s.freshHigh {
		c.violate("tcpsim", "refresh-overlap",
			"%s re-sent [%d,%d) without the retransmit flag (double-send per offset)",
			name, seq, end)
	}
	if end > s.freshHigh {
		s.freshHigh = end
	}
}

// TCPAck observes a cumulative ACK after the sender processed it; sndUna
// is the sender's post-processing lowest unacknowledged sequence.
func (c *Checker) TCPAck(name string, ack, sndUna uint64) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	s := c.tcp[name]
	if s == nil {
		return
	}
	if ack > s.freshHigh {
		c.violate("tcpsim", "ack-beyond-sent",
			"%s received ack=%d above everything ever sent (%d)", name, ack, s.freshHigh)
	} else if ack > sndUna {
		c.violate("tcpsim", "ignored-ack",
			"%s ignored in-window cumulative ack=%d (snd_una stuck at %d, sent through %d)",
			name, ack, sndUna, s.freshHigh)
	}
	if s.haveAck && sndUna < s.maxSndUna {
		c.violate("tcpsim", "snduna-regress",
			"%s snd_una moved backwards: %d -> %d", name, s.maxSndUna, sndUna)
	}
	if sndUna > s.maxSndUna || !s.haveAck {
		s.maxSndUna = sndUna
		s.haveAck = true
	}
}

// TCPDeliver observes in-order data delivery; rcvNxt is the receiver's
// next expected sequence after the delivery.
func (c *Checker) TCPDeliver(name string, rcvNxt uint64) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	s := c.tcp[name]
	if s == nil {
		return
	}
	if s.haveRcv && rcvNxt < s.maxRcvNxt {
		c.violate("tcpsim", "rcvnxt-regress",
			"%s rcv_nxt moved backwards: %d -> %d", name, s.maxRcvNxt, rcvNxt)
	}
	if s.peer != nil && rcvNxt > s.peer.freshHigh {
		c.violate("tcpsim", "deliver-unsent",
			"%s delivered through %d but peer %s only sent through %d",
			name, rcvNxt, s.peer.name, s.peer.freshHigh)
	}
	if rcvNxt > s.maxRcvNxt || !s.haveRcv {
		s.maxRcvNxt = rcvNxt
		s.haveRcv = true
	}
}

// TCPRewind records a sanctioned go-back-N rewind of sndNxt at RTO; the
// monotonicity rules treat sequence state after it accordingly.
func (c *Checker) TCPRewind(name string, from, to uint64) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if s := c.tcp[name]; s != nil {
		s.rewinds++
		if to > from {
			c.violate("tcpsim", "rewind-forward",
				"%s RTO rewind moved snd_nxt forward: %d -> %d", name, from, to)
		}
	}
}

// ---------------------------------------------------------------------------
// h2 hooks

// H2Register announces an HTTP/2 endpoint with our advertised
// SETTINGS_INITIAL_WINDOW_SIZE.
func (c *Checker) H2Register(name string, isClient bool, initialWindow uint32) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	c.h2[name] = &h2Shadow{
		name:     name,
		isClient: isClient,
		connSend: 65535,
		connRecv: 65535,
		peerInit: 65535,
		myInit:   int64(initialWindow),
		streams:  make(map[uint32]*h2StreamShadow),
	}
}

func (h *h2Shadow) stream(id uint32) *h2StreamShadow {
	return h.streams[id]
}

func (h *h2Shadow) ensure(id uint32) *h2StreamShadow {
	s := h.streams[id]
	if s == nil {
		s = &h2StreamShadow{sendWin: h.peerInit, recvWin: h.myInit}
		h.streams[id] = s
	}
	return s
}

// H2FrameSent observes an emitted frame. length is the payload length;
// flags the frame-header flags byte; aux carries the WINDOW_UPDATE
// increment or PUSH_PROMISE promised stream ID where applicable.
func (c *Checker) H2FrameSent(name string, ftype uint8, streamID uint32, length int, flags uint8, aux uint32) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	h := c.h2[name]
	if h == nil {
		return
	}
	switch ftype {
	case frameData:
		st := h.stream(streamID)
		switch {
		case st == nil:
			c.violate("h2", "data-on-idle-stream",
				"%s sent DATA on stream %d with no prior HEADERS/PUSH_PROMISE", name, streamID)
		case st.sentES:
			c.violate("h2", "data-after-end-stream",
				"%s sent DATA on stream %d after its own END_STREAM", name, streamID)
		case st.sentRST:
			c.violate("h2", "frame-after-rst",
				"%s sent DATA on stream %d after sending RST_STREAM", name, streamID)
		case st.recvRST:
			c.violate("h2", "frame-after-rst",
				"%s sent DATA on stream %d after receiving RST_STREAM", name, streamID)
		}
		if st != nil && flags&flagEndStream != 0 {
			st.sentES = true
		}
	case frameHeaders:
		st := h.ensure(streamID)
		if st.sentRST {
			c.violate("h2", "frame-after-rst",
				"%s sent HEADERS on stream %d after sending RST_STREAM", name, streamID)
		}
		if st.sentES {
			c.violate("h2", "headers-after-end-stream",
				"%s sent HEADERS on stream %d after its own END_STREAM", name, streamID)
		}
		st.opened = true
		if flags&flagEndStream != 0 {
			st.sentES = true
		}
	case frameRSTStream:
		st := h.stream(streamID)
		if st != nil && st.sentRST {
			c.violate("h2", "double-rst",
				"%s sent RST_STREAM twice on stream %d", name, streamID)
		}
		h.ensure(streamID).sentRST = true
	case framePushPromise:
		if existing := h.stream(aux); existing != nil {
			c.violate("h2", "push-promised-id-reused",
				"%s promised stream %d which already exists", name, aux)
		}
		h.ensure(aux).resLocal = true
	case frameWindowUpdate:
		if streamID == 0 {
			h.connRecv += int64(aux)
		} else if st := h.stream(streamID); st != nil {
			st.recvWin += int64(aux)
		}
	}
}

// H2DataSent observes the flow-control consumption of a sent DATA frame
// (chunk plus padding overhead), at the exact point the connection debits
// its own windows.
func (c *Checker) H2DataSent(name string, streamID uint32, consumed int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	h := c.h2[name]
	if h == nil {
		return
	}
	h.connSend -= int64(consumed)
	if h.connSend < 0 {
		c.violate("h2", "send-window-negative",
			"%s connection send window driven to %d by stream %d", name, h.connSend, streamID)
	}
	if st := h.stream(streamID); st != nil {
		st.sendWin -= int64(consumed)
		if st.sendWin < 0 {
			c.violate("h2", "send-window-negative",
				"%s stream %d send window driven to %d", name, streamID, st.sendWin)
		}
	}
}

// H2FrameRecv observes a received frame, with the same argument
// conventions as H2FrameSent.
func (c *Checker) H2FrameRecv(name string, ftype uint8, streamID uint32, length int, flags uint8, aux uint32) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	h := c.h2[name]
	if h == nil {
		return
	}
	switch ftype {
	case frameData:
		h.connRecv -= int64(length)
		if h.connRecv < 0 {
			c.violate("h2", "recv-window-negative",
				"%s connection receive window driven to %d", name, h.connRecv)
		}
		st := h.stream(streamID)
		if st != nil && !st.sentRST && !st.recvRST {
			if st.recvES {
				c.violate("h2", "data-after-end-stream",
					"%s received DATA on stream %d after the peer's END_STREAM", name, streamID)
			} else {
				st.recvWin -= int64(length)
				if st.recvWin < 0 {
					c.violate("h2", "recv-window-negative",
						"%s stream %d receive window driven to %d", name, streamID, st.recvWin)
				}
			}
		}
		if st != nil && flags&flagEndStream != 0 {
			st.recvES = true
		}
	case frameHeaders:
		st := h.ensure(streamID)
		st.opened = true
		if flags&flagEndStream != 0 {
			st.recvES = true
		}
	case frameRSTStream:
		h.ensure(streamID).recvRST = true
	case framePushPromise:
		h.ensure(aux).resRemote = true
	case frameWindowUpdate:
		if streamID == 0 {
			h.connSend += int64(aux)
		} else if st := h.stream(streamID); st != nil {
			st.sendWin += int64(aux)
		}
	}
}

// H2PeerInitialWindow observes the peer's SETTINGS_INITIAL_WINDOW_SIZE.
// Per RFC 7540 §6.9.2 the delta applies to all stream send windows but
// never to the connection window.
func (c *Checker) H2PeerInitialWindow(name string, val uint32) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	h := c.h2[name]
	if h == nil {
		return
	}
	delta := int64(val) - h.peerInit
	h.peerInit = int64(val)
	for _, st := range h.streams {
		st.sendWin += delta
	}
}

// H2AppData fires immediately before DATA payload is surfaced to the
// application; surfacing data on a stream that was reset in either
// direction is a violation.
func (c *Checker) H2AppData(name string, streamID uint32) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	h := c.h2[name]
	if h == nil {
		return
	}
	if st := h.stream(streamID); st != nil && (st.sentRST || st.recvRST) {
		c.violate("h2", "data-after-rst-surfaced",
			"%s surfaced DATA to the app on reset stream %d", name, streamID)
	}
}

// ---------------------------------------------------------------------------
// hpack hooks

func (c *Checker) h2Role(name string) (idx int, ok bool) {
	h := c.h2[name]
	if h == nil {
		return 0, false
	}
	if h.isClient {
		return 0, true
	}
	return 1, true
}

// HpackEncoded observes the encoder's dynamic-table size right after a
// header block was encoded by endpoint name.
func (c *Checker) HpackEncoded(name string, tableSize int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if idx, ok := c.h2Role(name); ok {
		c.hpack[idx] = append(c.hpack[idx], tableSize)
	}
}

// HpackDecoded observes the decoder's dynamic-table size right after the
// receiving endpoint decoded a complete header block. Blocks decode in
// the order the peer encoded them (TCP is in-order), so the sizes must
// match FIFO. If the sending side is not armed the queue is empty and the
// sample is skipped.
func (c *Checker) HpackDecoded(name string, tableSize int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	idx, ok := c.h2Role(name)
	if !ok {
		return
	}
	peer := 1 - idx // we decode blocks the peer encoded
	q := c.hpack[peer]
	if len(q) == 0 {
		return
	}
	want := q[0]
	c.hpack[peer] = q[1:]
	if want != tableSize {
		c.violate("hpack", "table-desync",
			"%s decoder dynamic table is %d bytes, peer encoder had %d after the same block",
			name, tableSize, want)
	}
}

// ---------------------------------------------------------------------------
// netsim hooks

// LinkOffered observes a packet handed to a link's Send.
func (c *Checker) LinkOffered(dir uint8, size int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	l := &c.links[dir&1]
	l.offeredPkts++
	l.offeredBytes += int64(size)
}

// LinkDropped observes a packet's drop fate (exactly one fate per packet).
func (c *Checker) LinkDropped(dir uint8, size int, kind uint8) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	l := &c.links[dir&1]
	l.droppedPkts[kind&3]++
	l.droppedBytes += int64(size)
	if l.offeredPkts != l.forwardedPkts+l.droppedTotal() {
		c.violate("netsim", "link-conservation",
			"dir=%d offered=%d != forwarded=%d + dropped=%d after drop",
			dir, l.offeredPkts, l.forwardedPkts, l.droppedTotal())
	}
}

// LinkForwarded observes a packet scheduled for delivery; dup marks the
// extra copy of a duplicated packet (which does not book a new fate).
func (c *Checker) LinkForwarded(dir uint8, size int, dup bool) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	l := &c.links[dir&1]
	if dup {
		l.dupPkts++
		return
	}
	l.forwardedPkts++
	l.forwardBytes += int64(size)
	if l.offeredPkts != l.forwardedPkts+l.droppedTotal() {
		c.violate("netsim", "link-conservation",
			"dir=%d offered=%d != forwarded=%d + dropped=%d after forward",
			dir, l.offeredPkts, l.forwardedPkts, l.droppedTotal())
	}
}

// LinkDelivered observes a delivery firing at the far end of a link.
func (c *Checker) LinkDelivered(dir uint8, size int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	l := &c.links[dir&1]
	l.deliveredPkts++
	l.deliverBytes += int64(size)
	if l.deliveredPkts > l.forwardedPkts+l.dupPkts {
		c.violate("netsim", "delivered-unforwarded",
			"dir=%d delivered %d packets but only %d forwarded (+%d dup)",
			dir, l.deliveredPkts, l.forwardedPkts, l.dupPkts)
	}
}

// LinkStatsFinal cross-checks the link's own stats counters against the
// shadow tallies at trial end — a differential check on the stats
// bookkeeping itself (this is the check that would have caught PR 4's
// duplicate deliveries not booking BytesDelivered).
func (c *Checker) LinkStatsFinal(dir uint8, sent, delivered, duplicated, droppedLoss, droppedPolicy, droppedQueue, droppedFault int, bytesDelivered int64) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	l := &c.links[dir&1]
	type pair struct {
		field  string
		got    int64
		shadow int64
	}
	for _, p := range []pair{
		{"Sent", int64(sent), int64(l.offeredPkts)},
		{"Delivered", int64(delivered), int64(l.deliveredPkts)},
		{"Duplicated", int64(duplicated), int64(l.dupPkts)},
		{"DroppedLoss", int64(droppedLoss), int64(l.droppedPkts[DropLoss])},
		{"DroppedPolicy", int64(droppedPolicy), int64(l.droppedPkts[DropPolicy])},
		{"DroppedQueue", int64(droppedQueue), int64(l.droppedPkts[DropQueue])},
		{"DroppedFault", int64(droppedFault), int64(l.droppedPkts[DropFault])},
		{"BytesDelivered", bytesDelivered, l.deliverBytes},
	} {
		if p.got != p.shadow {
			c.violate("netsim", "link-stats-drift",
				"dir=%d LinkStats.%s=%d but the shadow tally says %d",
				dir, p.field, p.got, p.shadow)
		}
	}
}

// AggForwarded observes a packet admitted to the shared bottleneck's
// serializer. Member links book their own LinkForwarded too, so at every
// instant the aggregate shadow must equal the per-flow forwarded sums —
// the fleet-topology conservation invariant AggStatsFinal settles.
func (c *Checker) AggForwarded(dir uint8, size int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	a := &c.aggs[dir&1]
	a.armed = true
	a.fwdPkts++
	a.fwdBytes += int64(size)
}

// AggStatsFinal cross-checks a bottleneck's AggStats against the shadow
// tally at trial end, and pins the aggregate-conservation invariant: when
// every link in a direction feeds the bottleneck, the per-flow forwarded
// packet/byte sums (the links shadow) must equal what the aggregate
// serialized. droppedQueue is the shared queue's tail-drop count; each
// such drop also books on exactly one member link, so the per-flow
// DroppedQueue sum must cover it.
func (c *Checker) AggStatsFinal(dir uint8, forwarded int, bytes int64, droppedQueue int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	a := &c.aggs[dir&1]
	if !a.armed && forwarded == 0 && droppedQueue == 0 {
		return
	}
	if forwarded != a.fwdPkts || bytes != a.fwdBytes {
		c.violate("netsim", "agg-stats-drift",
			"dir=%d AggStats says %d pkts/%d bytes but the shadow tally says %d/%d",
			dir, forwarded, bytes, a.fwdPkts, a.fwdBytes)
	}
	l := &c.links[dir&1]
	if a.fwdPkts != l.forwardedPkts || a.fwdBytes != l.forwardBytes {
		c.violate("netsim", "agg-conservation",
			"dir=%d per-flow forwarded sums (%d pkts/%d bytes) != bottleneck admissions (%d/%d)",
			dir, l.forwardedPkts, l.forwardBytes, a.fwdPkts, a.fwdBytes)
	}
	if droppedQueue > l.droppedPkts[DropQueue] {
		c.violate("netsim", "agg-conservation",
			"dir=%d bottleneck tail-dropped %d packets but the flows only booked %d queue drops",
			dir, droppedQueue, l.droppedPkts[DropQueue])
	}
}

// ---------------------------------------------------------------------------
// adversary budget hooks

// BudgetArm announces the adversary's interference budget: at most k
// fleet flows may hold a slot concurrently.
func (c *Checker) BudgetArm(k int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	c.budgetCap = k
	if c.budgetActive == nil {
		c.budgetActive = make(map[int]bool)
	}
}

// BudgetAcquire observes the adversary taking a slot for a flow. A flow
// may hold at most one slot, and the active count must never exceed the
// armed cap.
func (c *Checker) BudgetAcquire(flow int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if c.budgetActive == nil {
		c.budgetActive = make(map[int]bool)
	}
	if c.budgetActive[flow] {
		c.violate("adversary", "budget-double-acquire",
			"flow %d acquired a budget slot it already holds", flow)
		return
	}
	c.budgetActive[flow] = true
	if n := len(c.budgetActive); n > c.budgetPeak {
		c.budgetPeak = n
	}
	if len(c.budgetActive) > c.budgetCap {
		c.violate("adversary", "budget-exceeded",
			"%d flows hold interference slots but the budget is %d",
			len(c.budgetActive), c.budgetCap)
	}
}

// BudgetRelease observes the adversary returning a flow's slot.
func (c *Checker) BudgetRelease(flow int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if !c.budgetActive[flow] {
		c.violate("adversary", "budget-release-unheld",
			"flow %d released a budget slot it does not hold", flow)
		return
	}
	delete(c.budgetActive, flow)
}

// BudgetPeak reports the highest concurrent slot count observed. Safe on
// nil.
func (c *Checker) BudgetPeak() int {
	if c == nil {
		return 0
	}
	c.lock()
	defer c.unlock()
	return c.budgetPeak
}

// ---------------------------------------------------------------------------
// simtime hook

// SchedulerStep observes each event execution time; virtual time must be
// monotone. The signature matches simtime's SetStepHook so the scheduler
// stays free of module-internal imports.
func (c *Checker) SchedulerStep(at time.Duration) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if c.stepped && at < c.lastAt {
		c.violate("simtime", "time-regress",
			"scheduler ran an event at %v after %v", at, c.lastAt)
	}
	c.lastAt = at
	c.stepped = true
}

// ---------------------------------------------------------------------------
// capture hooks

// CaptureAppend observes n bytes appended to a direction's reassembled
// stream, before the parser consumes them: nextSeq must advance without
// gaps or overlaps, and the open record must not have consumed more than
// its declared wire length (have bytes of limit; limit is the header size
// while the header is incomplete).
func (c *Checker) CaptureAppend(dir uint8, n, have, limit int, nextSeq uint64) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	s := &c.caps[dir&1]
	if have > limit {
		c.violate("capture", "record-overrun",
			"dir=%d open record consumed %d bytes but declares %d", dir, have, limit)
	}
	if s.init && nextSeq != s.nextSeq+uint64(n) {
		c.violate("capture", "stream-discontinuity",
			"dir=%d nextSeq jumped %d -> %d appending %d bytes (gap or overlap)",
			dir, s.nextSeq, nextSeq, n)
	}
	s.nextSeq = nextSeq
	s.init = true
	s.appended += int64(n)
}

// CaptureRecord observes a TLS record of wireLen bytes cut off the front
// of a direction's stream, leaving remaining bytes appended but not yet in
// a completed record (the open record's consumed bytes plus any not yet
// consumed). Records plus the residue must exactly partition everything
// appended.
func (c *Checker) CaptureRecord(dir uint8, wireLen, remaining int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	s := &c.caps[dir&1]
	s.parsed += int64(wireLen)
	if s.parsed+int64(remaining) != s.appended {
		c.violate("capture", "record-partition",
			"dir=%d parsed=%d + buffered=%d != appended=%d (records do not partition the stream)",
			dir, s.parsed, remaining, s.appended)
	}
}
