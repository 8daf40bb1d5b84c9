package netsim

import (
	"fmt"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/instr"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
	"h2privacy/internal/trace"
)

// LinkConfig describes one direction of the path.
type LinkConfig struct {
	// BandwidthBps is the link rate in bits per second. Must be > 0.
	BandwidthBps float64
	// PropDelay is the one-way propagation delay.
	PropDelay time.Duration
	// NaturalJitter is the maximum natural per-packet delay variation;
	// an affected packet gets an extra uniform delay in [0, NaturalJitter].
	NaturalJitter time.Duration
	// ReorderProb is the fraction of packets the natural jitter affects
	// (netem's reorder model). Zero means every packet (classic uniform
	// jitter); real FIFO paths reorder only occasionally, so baselines
	// use a small value like 0.02.
	ReorderProb float64
	// LossProb is the probability of random (non-adversarial) loss.
	LossProb float64
	// DuplicateProb is the probability a packet is delivered twice
	// (netem's duplicate knob); the copy takes an independent jitter
	// draw. Receivers and the monitor deduplicate by sequence number.
	DuplicateProb float64
	// QueueLimit is the maximum number of bytes waiting for
	// serialization before tail drop. Zero means 256 KiB.
	QueueLimit int
}

func (c *LinkConfig) validate() error {
	if c.BandwidthBps <= 0 {
		return fmt.Errorf("netsim: bandwidth must be positive, got %v", c.BandwidthBps)
	}
	if c.PropDelay < 0 {
		return fmt.Errorf("netsim: propagation delay must be non-negative, got %v", c.PropDelay)
	}
	if c.NaturalJitter < 0 {
		return fmt.Errorf("netsim: natural jitter must be non-negative, got %v", c.NaturalJitter)
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("netsim: loss probability must be in [0,1), got %v", c.LossProb)
	}
	if c.ReorderProb < 0 || c.ReorderProb > 1 {
		return fmt.Errorf("netsim: reorder probability must be in [0,1], got %v", c.ReorderProb)
	}
	if c.DuplicateProb < 0 || c.DuplicateProb >= 1 {
		return fmt.Errorf("netsim: duplicate probability must be in [0,1), got %v", c.DuplicateProb)
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 256 << 10
	}
	return nil
}

// LinkStats counts packet fates on one link.
type LinkStats struct {
	Sent           int // packets offered to the link
	Delivered      int
	Duplicated     int
	DroppedLoss    int
	DroppedPolicy  int
	DroppedQueue   int
	DroppedFault   int // dropped by an injected fault (blackout / burst-loss episode)
	BytesDelivered int64
}

// Link is one unidirectional, rate-limited, lossy pipe with a middlebox in
// front of it. Packets are serialized FIFO at the current bandwidth; the
// per-packet extra delays (natural jitter plus adversary-injected delay)
// are applied in flight, after serialization, so differential delay
// reorders packets without head-of-line blocking — the same behaviour as
// netem's variable-delay qdisc, which the paper's adversary used.
type Link struct {
	sched *simtime.Scheduler
	rng   *simtime.Rand
	dir   Direction
	cfg   LinkConfig

	deliver Handler
	procs   []Processor
	taps    []Tap
	// A trial's link has one processor (the adversary's controller) and
	// one tap (the monitor); these hold them without an allocation.
	procBuf [1]Processor
	tapBuf  [1]Tap

	busyUntil   time.Duration
	queuedBytes int
	stats       LinkStats
	nextID      *uint64 // shared across both links of a path

	// Injected fault state (see faults.go). All three are inert at their
	// zero values and cost no RNG draws, so un-faulted trials are
	// bit-identical to builds without the fault layer.
	faultLoss float64       // burst-loss episode: overrides LossProb while > 0
	blackout  bool          // full outage: every packet dropped
	propExtra time.Duration // RTT step: added to PropDelay for new packets

	tr           *trace.Tracer
	maxDelivered uint64 // highest packet ID delivered, for the traced reorder events

	ck    *check.Checker // nil unless invariant checks are armed
	ckDir uint8          // check.DirC2S / check.DirS2C, resolved once

	// txLane and dlvLane carry the link's queue-drain and delivery
	// events. Drain times never decrease (the serializer is FIFO), and
	// deliveries do too unless jitter lets a packet overtake, so each
	// stream sits in the scheduler heap as one slot; an overtaking
	// delivery falls back to an ordinary event with the same key.
	txLane  simtime.Lane
	dlvLane simtime.Lane

	// bgLane carries the queue drains of background packets (see
	// SendBackground), bgQueued counts them, and bgArmed records that the
	// lane is bound: links that never carry background load never bind it.
	bgLane   simtime.Lane
	bgQueued int
	bgArmed  bool

	// Packet recycling (see SetRecycle), armed when pktFree is non-nil.
	// pktFree is the worker's Packet free list and release hands the
	// payload back to its owner (tcpsim's segment pool) once the last
	// scheduled reference has fired — refcounted, because netem-style
	// duplication delivers the same packet twice.
	release func(payload any)
	pktFree *pool.FreeList[Packet]

	// Shared-bottleneck attachment (see bottleneck.go). When agg is
	// non-nil the link's own queue/serializer is replaced by the shared
	// one; everything upstream of serialization — middlebox processors,
	// blackout, loss, and the jitter/duplicate draws — stays here so the
	// per-flow RNG stream is untouched. aggQ is this link's DRR queue,
	// bound at attach.
	agg  *Bottleneck
	aggQ *aggQueue
}

// NewLink builds a link for one direction. deliver may be set later with
// SetDeliver but must be non-nil before the first Send. ins.Trace arms
// per-packet tracing and ins.Check packet-conservation checks.
func NewLink(sched *simtime.Scheduler, rng *simtime.Rand, dir Direction, cfg LinkConfig, nextID *uint64, ins instr.Bundle) (*Link, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if nextID == nil {
		nextID = new(uint64)
	}
	l := &Link{sched: sched, rng: rng, dir: dir, cfg: cfg, nextID: nextID, tr: ins.Trace, ck: ins.Check, ckDir: check.DirC2S}
	if dir == ServerToClient {
		l.ckDir = check.DirS2C
	}
	l.procs, l.taps = l.procBuf[:0], l.tapBuf[:0]
	l.txLane.Init(sched, l.onTxDone)
	l.dlvLane.Init(sched, l.onDeliver)
	return l, nil
}

// SetRecycle arms packet-struct recycling through free, typically the
// worker's list from pool.Local, shared by every link on the worker:
// once every scheduled reference to a forwarded packet has fired (or a
// packet is dropped at the middlebox), release is called with its
// payload — the transport returns segment buffers to its pool there —
// and the Packet struct itself goes onto free for the next Send on any
// link. A nil free leaves recycling off; release may be nil to recycle
// only the structs. Callers (taps, processors, delivery handlers) must
// not retain *Packet or the payload past their callback once recycling
// is armed; everything in the trial object graph obeys that already (the
// capture monitor deep-copies when its packet log is on). Direct
// Link/Path users that keep packet pointers — several netsim tests do —
// simply leave recycling off.
func (l *Link) SetRecycle(free *pool.FreeList[Packet], release func(payload any)) {
	l.pktFree, l.release = free, release
}

// SetDeliver installs the receiving endpoint's handler.
func (l *Link) SetDeliver(h Handler) { l.deliver = h }

// AddProcessor appends a middlebox processor. Processors run in order.
func (l *Link) AddProcessor(p Processor) { l.procs = append(l.procs, p) }

// AddTap appends a passive observer.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Bandwidth reports the current link rate in bits per second.
func (l *Link) Bandwidth() float64 { return l.cfg.BandwidthBps }

// SetBandwidth throttles or restores the link rate. Takes effect for
// packets sent after the call (the adversary's bandwidth-limitation knob,
// §IV-C); packets already serialized or queued keep the transmission time
// computed at their send, so a rate change never reorders the FIFO.
// A non-positive rate panics: it is always a caller bug (a zero-rate link
// is a blackout, which SetBlackout models explicitly).
func (l *Link) SetBandwidth(bps float64) {
	if bps <= 0 {
		panic(fmt.Sprintf("netsim: SetBandwidth requires a positive rate, got %v", bps))
	}
	l.cfg.BandwidthBps = bps
}

// SetFaultLoss arms a burst-loss episode: while p > 0 it replaces the
// configured LossProb for new packets, and matching drops are counted as
// DroppedFault. Zero ends the episode. Negative values clamp to zero.
func (l *Link) SetFaultLoss(p float64) {
	if p < 0 {
		p = 0
	}
	l.faultLoss = p
}

// SetBlackout takes the link fully down (every packet dropped as a fault)
// or back up. In-flight packets already past the middlebox still arrive.
func (l *Link) SetBlackout(on bool) { l.blackout = on }

// SetPropDelayExtra sets the additional propagation delay an RTT-step
// fault contributes, clamped so the effective one-way delay stays
// non-negative. Applies to packets sent after the call.
func (l *Link) SetPropDelayExtra(d time.Duration) {
	if l.cfg.PropDelay+d < 0 {
		d = -l.cfg.PropDelay
	}
	l.propExtra = d
}

// Send offers a packet to the link. The packet's ID, Dir and SentAt fields
// are filled in by the link.
func (l *Link) Send(size int, payload any) { l.send(size, payload, false) }

// SendBackground offers one cross-traffic packet (payload Background{}).
// Up to its delivery it is a packet like any other: it meets the same
// middlebox, blackout and loss stages, takes the same jitter and duplicate
// draws in the same order, and holds its bytes in the queue until its
// drain fires, so it delays and tail-drops real packets as before. Nothing
// at the far end acts on it, so it is never delivered: its arrival, and a
// duplicate's, is booked on the stats, the checker and the trace when it
// is forwarded, and only its drain is scheduled. Behind a Bottleneck it
// is delivered like any packet.
func (l *Link) SendBackground(size int) { l.send(size, Background{}, true) }

func (l *Link) send(size int, payload any, background bool) {
	if l.deliver == nil {
		panic("netsim: Send on link with no deliver handler")
	}
	if size <= 0 {
		panic(fmt.Sprintf("netsim: non-positive packet size %d", size))
	}
	now := l.sched.Now()
	pkt := l.pktFree.Get() // zeroed; allocates without recycling or while the list is empty
	pkt.ID, pkt.Dir, pkt.Size, pkt.Payload, pkt.SentAt = *l.nextID, l.dir, size, payload, now
	*l.nextID++
	l.stats.Sent++
	l.ck.LinkOffered(l.ckDir, size)
	if l.tr.Enabled() {
		l.tr.Emit(trace.LayerNetsim, "enqueue",
			trace.Str("dir", l.dir.String()), trace.Num("id", int64(pkt.ID)), trace.Num("size", int64(size)))
	}

	// Middlebox: policy drops and injected delay.
	var extra time.Duration
	for _, p := range l.procs {
		v := p.Process(now, pkt)
		if v.Drop {
			l.stats.DroppedPolicy++
			l.ck.LinkDropped(l.ckDir, size, check.DropPolicy)
			l.traceDrop(pkt, "policy")
			l.observe(PacketEvent{Now: now, Pkt: pkt, Action: ActionDroppedPolicy})
			l.discard(pkt)
			return
		}
		extra += v.ExtraDelay
	}

	// Injected blackout: the path is down, nothing crosses.
	if l.blackout {
		l.stats.DroppedFault++
		l.ck.LinkDropped(l.ckDir, size, check.DropFault)
		l.traceDrop(pkt, "fault")
		l.observe(PacketEvent{Now: now, Pkt: pkt, Action: ActionDroppedFault})
		l.discard(pkt)
		return
	}

	// Random link loss; an active burst-loss episode overrides the base
	// rate and books its drops as faults. Either way it is one RNG draw,
	// so arming the fault layer never desynchronizes the jitter stream.
	lossProb, faultEpisode := l.cfg.LossProb, false
	if l.faultLoss > 0 {
		lossProb, faultEpisode = l.faultLoss, true
	}
	if l.rng.Bool(lossProb) {
		if faultEpisode {
			l.stats.DroppedFault++
			l.ck.LinkDropped(l.ckDir, size, check.DropFault)
			l.traceDrop(pkt, "fault")
			l.observe(PacketEvent{Now: now, Pkt: pkt, Action: ActionDroppedFault})
		} else {
			l.stats.DroppedLoss++
			l.ck.LinkDropped(l.ckDir, size, check.DropLoss)
			l.traceDrop(pkt, "loss")
			l.observe(PacketEvent{Now: now, Pkt: pkt, Action: ActionDroppedLoss})
		}
		l.discard(pkt)
		return
	}

	// With a bottleneck attached, queueing and serialization are the
	// shared link's job from here on.
	if l.agg != nil {
		l.agg.send(l, now, pkt, size, extra)
		return
	}

	// Tail drop when the serialization queue is over its byte limit.
	if l.queuedBytes+size > l.cfg.QueueLimit {
		l.dropQueue(now, pkt, size)
		return
	}

	// FIFO serialization at the current rate.
	txStart := now
	if l.busyUntil > txStart {
		txStart = l.busyUntil
	}
	txTime := time.Duration(float64(size*8) / l.cfg.BandwidthBps * float64(time.Second))
	txEnd := txStart + txTime
	l.busyUntil = txEnd
	l.queuedBytes += size
	if background {
		l.forwardBackground(now, pkt, txEnd, extra)
		return
	}
	pkt.refs = 2 // queue-drain + delivery; a duplicate adds a third
	l.txLane.At(txEnd, pkt)

	arrival := txEnd + l.cfg.PropDelay + l.propExtra + l.naturalJitter() + extra
	l.ck.LinkForwarded(l.ckDir, size, false)
	l.observe(PacketEvent{Now: now, Pkt: pkt, Action: ActionForwarded, Arrival: arrival})
	l.dlvLane.At(arrival, pkt)
	// netem-style duplication: a second copy whose independent jitter draw
	// goes through the same ReorderProb gate as the primary, and whose
	// delivery updates the same stats the primary does.
	if l.rng.Bool(l.cfg.DuplicateProb) {
		dupArrival := txEnd + l.cfg.PropDelay + l.propExtra + l.naturalJitter() + extra
		l.stats.Duplicated++
		l.ck.LinkForwarded(l.ckDir, size, true)
		pkt.refs++
		l.dlvLane.At(dupArrival, pkt)
	}
}

// forwardBackground forwards a queued background packet: it schedules
// the queue drain and books the arrival of the packet, and of its
// duplicate when one is drawn, at once. The draws, and the drain's
// sequence number, are taken where Send takes them.
func (l *Link) forwardBackground(now time.Duration, pkt *Packet, txEnd, extra time.Duration) {
	if !l.bgArmed {
		l.bgLane.Init(l.sched, l.onBackgroundDrained)
		l.bgArmed = true
	}
	pkt.refs = 1 // the queue drain only
	l.bgQueued++
	l.bgLane.At(txEnd, pkt)

	arrival := txEnd + l.cfg.PropDelay + l.propExtra + l.naturalJitter() + extra
	l.ck.LinkForwarded(l.ckDir, pkt.Size, false)
	l.observe(PacketEvent{Now: now, Pkt: pkt, Action: ActionForwarded, Arrival: arrival})
	l.bookArrival(pkt.Size)
	l.traceDequeue(pkt, false)
	if l.rng.Bool(l.cfg.DuplicateProb) {
		l.naturalJitter() // the copy's arrival draw, which Send takes too
		l.stats.Duplicated++
		l.ck.LinkForwarded(l.ckDir, pkt.Size, true)
		l.bookArrival(pkt.Size)
		l.traceDequeue(pkt, false)
	}
}

// bookArrival counts one delivered copy of a packet.
func (l *Link) bookArrival(size int) {
	l.stats.Delivered++
	l.stats.BytesDelivered += int64(size)
	l.ck.LinkDelivered(l.ckDir, size)
}

// dropQueue books a queue tail drop (local or shared budget) on the
// link's stats, checker, trace and taps, then discards the packet.
func (l *Link) dropQueue(now time.Duration, pkt *Packet, size int) {
	l.stats.DroppedQueue++
	l.ck.LinkDropped(l.ckDir, size, check.DropQueue)
	l.traceDrop(pkt, "queue")
	l.observe(PacketEvent{Now: now, Pkt: pkt, Action: ActionDroppedQueue})
	l.discard(pkt)
}

// onTxDone fires when the packet's last bit leaves the serialization
// queue: the queued-byte budget is returned and one scheduler reference
// on the packet is dropped.
func (l *Link) onTxDone(v any) {
	pkt := v.(*Packet)
	l.queuedBytes -= pkt.Size
	l.unref(pkt)
}

// onBackgroundDrained is onTxDone for a background packet.
func (l *Link) onBackgroundDrained(v any) {
	l.bgQueued--
	l.onTxDone(v)
}

// onDeliver fires at a packet's arrival time (primary or duplicate
// copy) and hands it to the endpoint.
func (l *Link) onDeliver(v any) {
	pkt := v.(*Packet)
	l.bookArrival(pkt.Size)
	l.traceDequeue(pkt, true)
	l.deliver(pkt)
	l.unref(pkt)
}

// unref drops one scheduler reference; the last one recycles the packet
// (and its payload, through the release hook). A no-op on links without
// recycling armed.
func (l *Link) unref(pkt *Packet) {
	if l.pktFree == nil {
		return
	}
	pkt.refs--
	if pkt.refs > 0 {
		return
	}
	if l.release != nil {
		l.release(pkt.Payload)
	}
	l.pktFree.Put(pkt)
}

// discard recycles a packet dropped at the middlebox (never scheduled,
// so no references are pending). A no-op without recycling.
func (l *Link) discard(pkt *Packet) {
	if l.pktFree == nil {
		return
	}
	if l.release != nil {
		l.release(pkt.Payload)
	}
	l.pktFree.Put(pkt)
}

// naturalJitter draws one per-packet natural delay, honoring the netem
// reorder gate: with ReorderProb set, only that fraction of packets takes
// a jitter draw at all.
func (l *Link) naturalJitter() time.Duration {
	if l.cfg.NaturalJitter > 0 && (l.cfg.ReorderProb == 0 || l.rng.Bool(l.cfg.ReorderProb)) {
		return l.rng.Uniform(0, l.cfg.NaturalJitter)
	}
	return 0
}

func (l *Link) traceDrop(pkt *Packet, reason string) {
	if l.tr.Enabled() {
		l.tr.Emit(trace.LayerNetsim, "drop",
			trace.Str("dir", l.dir.String()), trace.Num("id", int64(pkt.ID)),
			trace.Num("size", int64(pkt.Size)), trace.Str("reason", reason))
	}
}

// traceDequeue records a delivery, one event per Delivered count. With
// reorder set it also flags packets overtaken in flight: a delivered ID
// below the link's high-water mark means differential delay reordered
// the stream (the adversary's jitter knob doing its job). Background
// packets, booked when forwarded, leave the mark alone.
func (l *Link) traceDequeue(pkt *Packet, reorder bool) {
	if !l.tr.Enabled() {
		return
	}
	l.tr.Emit(trace.LayerNetsim, "dequeue",
		trace.Str("dir", l.dir.String()), trace.Num("id", int64(pkt.ID)), trace.Num("size", int64(pkt.Size)))
	if !reorder {
		return
	}
	if pkt.ID < l.maxDelivered {
		l.tr.Emit(trace.LayerNetsim, "reorder",
			trace.Str("dir", l.dir.String()), trace.Num("id", int64(pkt.ID)), trace.Num("behind", int64(l.maxDelivered-pkt.ID)))
	} else {
		l.maxDelivered = pkt.ID
	}
}

func (l *Link) observe(ev PacketEvent) {
	for _, t := range l.taps {
		t.Observe(ev)
	}
}
