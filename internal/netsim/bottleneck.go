package netsim

import (
	"fmt"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/instr"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
)

// Discipline selects the shared bottleneck's queueing model.
type Discipline int

const (
	// FIFO serializes every attached flow's packets through one shared
	// transmitter in send order: a slow (throttled) flow's packet holds the
	// transmitter for its whole serialization time, so it head-of-line
	// blocks everyone behind it — the collateral-damage mechanism a real
	// middlebox on an aggregation link exhibits.
	FIFO Discipline = iota
	// DRR is a deficit-round-robin fair queue (per-flow queues, byte
	// quantum): backlogged flows share the transmitter round-robin, so one
	// flow's backlog cannot starve the rest. The adversary's per-flow
	// interference still lands on its targets; the collateral path through
	// the queue is what changes.
	DRR
)

func (d Discipline) String() string {
	if d == DRR {
		return "drr"
	}
	return "fifo"
}

// BottleneckConfig describes the shared aggregation link all fleet flows
// serialize through (one instance covers both directions).
type BottleneckConfig struct {
	// BandwidthBps is the aggregate rate in bits per second. Must be > 0.
	// A packet serializes at min(member link rate, aggregate rate), so a
	// per-flow throttle slows that flow on the shared transmitter too.
	BandwidthBps float64
	// QueueLimit is the shared per-direction byte budget; packets beyond
	// it tail-drop (booked on both the flow's LinkStats and AggStats).
	// Zero means 256 KiB — the same default a standalone link uses, so a
	// one-flow bottleneck mirrors it exactly.
	QueueLimit int
	// Discipline selects FIFO (default) or DRR.
	Discipline Discipline
	// Quantum is the DRR byte quantum per round. Zero means 1500.
	Quantum int
}

func (c *BottleneckConfig) validate() error {
	if c.BandwidthBps <= 0 {
		return fmt.Errorf("netsim: bottleneck bandwidth must be positive, got %v", c.BandwidthBps)
	}
	if c.QueueLimit < 0 {
		return fmt.Errorf("netsim: bottleneck queue limit must be non-negative, got %d", c.QueueLimit)
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 256 << 10
	}
	if c.Quantum <= 0 {
		c.Quantum = 1500
	}
	return nil
}

// AggStats counts packet fates at the shared bottleneck, one direction.
// Forwarded/Bytes tally admissions to the shared serializer, so at any
// instant they equal the sum of the member links' forwarded counters —
// the aggregate-conservation invariant check.AggStatsFinal pins.
type AggStats struct {
	Forwarded    int
	Bytes        int64
	DroppedQueue int
}

// Bottleneck is the shared aggregation link of a fleet topology: every
// attached path's packets serialize through one transmitter per direction
// (FIFO or DRR), drawing on one shared queue byte budget. It performs no
// RNG draws of its own — loss, jitter and duplication stay on the member
// links, in the exact order a standalone link draws them — so attaching a
// bottleneck whose config mirrors the link's leaves a single flow
// bit-identical to the point-to-point topology.
type Bottleneck struct {
	sched *simtime.Scheduler
	cfg   BottleneckConfig
	dirs  [2]aggDir
	ck    *check.Checker

	svcDoneEv func(any)
	entryFree pool.FreeList[aggEntry]
}

type aggDir struct {
	busyUntil   time.Duration
	queuedBytes int
	stats       AggStats

	// drain carries FIFO queue-drain events for every attached flow of
	// this direction: the shared busyUntil makes their times monotone.
	drain simtime.Lane

	// DRR state: queues in attach order (= fleet flow order, so service
	// order is deterministic), active is the round-robin backlog list.
	queues  []*aggQueue
	active  []*aggQueue
	serving bool
}

type aggQueue struct {
	link    *Link
	entries []*aggEntry
	deficit int
	active  bool
}

// aggEntry is one DRR-queued packet: the delays drawn at Send (natural
// jitter, adversary extra, duplicate copy) ride along so admission
// consumes the same RNG stream FIFO and standalone links do.
type aggEntry struct {
	pkt      *Packet
	link     *Link
	size     int
	delay    time.Duration // post-serialization delay of the primary copy
	dupDelay time.Duration
	dup      bool
}

// NewBottleneck builds a shared bottleneck over the scheduler. ins.Check
// arms packet conservation on every attached link, whatever the path was
// built with, so the aggregate and the per-flow sums are checked together.
func NewBottleneck(sched *simtime.Scheduler, cfg BottleneckConfig, ins instr.Bundle) (*Bottleneck, error) {
	if sched == nil {
		return nil, fmt.Errorf("netsim: NewBottleneck requires a scheduler")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &Bottleneck{sched: sched, cfg: cfg, ck: ins.Check}
	b.svcDoneEv = b.onServiceDone
	for i := range b.dirs {
		d := &b.dirs[i]
		d.drain.Init(sched, d.onDrain)
	}
	return b, nil
}

// Config returns the validated configuration.
func (b *Bottleneck) Config() BottleneckConfig { return b.cfg }

// Stats returns a copy of one direction's aggregate counters.
func (b *Bottleneck) Stats(dir Direction) AggStats {
	return b.dirs[dirIndex(dir)].stats
}

// Attach routes both of a path's links through the bottleneck. Member
// links keep their own loss/jitter/duplication and middlebox processors;
// only the queue byte budget and the serializer become shared, and their
// conservation is checked by the bottleneck's checker. Attach order defines the DRR service order, so fleets attach flows in index
// order.
func (b *Bottleneck) Attach(p *Path) {
	b.attachLink(p.c2s)
	b.attachLink(p.s2c)
}

func (b *Bottleneck) attachLink(l *Link) {
	l.agg = b
	l.ck = b.ck
	d := &b.dirs[dirIndex(l.dir)]
	q := &aggQueue{link: l}
	l.aggQ = q
	d.queues = append(d.queues, q)
}

// send carries a packet that has already cleared the member link's
// middlebox, blackout and loss stages (so the per-flow RNG stream is
// exactly where a standalone Send would have it) through the shared
// queue and serializer.
func (b *Bottleneck) send(l *Link, now time.Duration, pkt *Packet, size int, extra time.Duration) {
	d := &b.dirs[dirIndex(l.dir)]

	// Tail drop against the shared byte budget; booked on the flow's own
	// stats (it lost the packet) and on the aggregate (it was full).
	if d.queuedBytes+size > b.cfg.QueueLimit {
		d.stats.DroppedQueue++
		l.dropQueue(now, pkt, size)
		return
	}
	d.stats.Forwarded++
	d.stats.Bytes += int64(size)
	l.ck.AggForwarded(l.ckDir, size)

	if b.cfg.Discipline == DRR {
		b.admitDRR(d, l, pkt, size, extra)
		return
	}

	// FIFO: shared-transmitter serialization at min(flow, aggregate) rate.
	// With one attached flow and a mirrored config this block computes the
	// same txStart/txEnd/arrival a standalone link would, in the same
	// order, with the same RNG draws.
	rate := b.cfg.BandwidthBps
	if l.cfg.BandwidthBps < rate {
		rate = l.cfg.BandwidthBps
	}
	txStart := now
	if d.busyUntil > txStart {
		txStart = d.busyUntil
	}
	txTime := time.Duration(float64(size*8) / rate * float64(time.Second))
	txEnd := txStart + txTime
	d.busyUntil = txEnd
	d.queuedBytes += size
	pkt.refs = 2 // queue-drain + delivery; a duplicate adds a third
	pkt.link = l
	d.drain.At(txEnd, pkt)

	arrival := txEnd + l.cfg.PropDelay + l.propExtra + l.naturalJitter() + extra
	l.ck.LinkForwarded(l.ckDir, size, false)
	l.observe(PacketEvent{Now: now, Pkt: pkt, Action: ActionForwarded, Arrival: arrival})
	l.dlvLane.At(arrival, pkt)
	if l.rng.Bool(l.cfg.DuplicateProb) {
		dupArrival := txEnd + l.cfg.PropDelay + l.propExtra + l.naturalJitter() + extra
		l.stats.Duplicated++
		l.ck.LinkForwarded(l.ckDir, size, true)
		pkt.refs++
		l.dlvLane.At(dupArrival, pkt)
	}
}

// onDrain fires when a FIFO packet's last bit leaves the shared
// transmitter: the shared byte budget is returned and one scheduler
// reference on the packet is dropped.
func (d *aggDir) onDrain(v any) {
	pkt := v.(*Packet)
	d.queuedBytes -= pkt.Size
	pkt.link.unref(pkt)
}

// admitDRR enqueues a packet on its flow's queue. The post-serialization
// delays are drawn NOW — natural jitter, then the duplicate gate, then
// the duplicate's jitter, the standalone Send order — and stored on the
// entry, so DRR's deferred service never desynchronizes the RNG stream.
func (b *Bottleneck) admitDRR(d *aggDir, l *Link, pkt *Packet, size int, extra time.Duration) {
	e := b.entryFree.Get()
	e.pkt, e.link, e.size = pkt, l, size
	e.delay = l.cfg.PropDelay + l.propExtra + l.naturalJitter() + extra
	pkt.refs = 2 // service-done + delivery; a duplicate adds a third
	l.ck.LinkForwarded(l.ckDir, size, false)
	if l.rng.Bool(l.cfg.DuplicateProb) {
		e.dup = true
		e.dupDelay = l.cfg.PropDelay + l.propExtra + l.naturalJitter() + extra
		l.stats.Duplicated++
		l.ck.LinkForwarded(l.ckDir, size, true)
		pkt.refs++
	}
	d.queuedBytes += size
	q := l.aggQ
	q.entries = append(q.entries, e)
	if !q.active {
		q.active = true
		q.deficit = 0
		d.active = append(d.active, q)
	}
	if !d.serving {
		b.serve(d, b.sched.Now())
	}
}

// serve picks the next DRR packet and schedules its service completion;
// with nothing backlogged the transmitter goes idle.
func (b *Bottleneck) serve(d *aggDir, now time.Duration) {
	for len(d.active) > 0 {
		q := d.active[0]
		if len(q.entries) == 0 {
			q.active = false
			q.deficit = 0
			d.active = d.active[1:]
			continue
		}
		head := q.entries[0]
		if q.deficit < head.size {
			q.deficit += b.cfg.Quantum
			d.active = append(d.active[1:], q)
			continue
		}
		q.deficit -= head.size
		q.entries = q.entries[1:]
		rate := b.cfg.BandwidthBps
		if lr := head.link.cfg.BandwidthBps; lr < rate {
			rate = lr
		}
		txTime := time.Duration(float64(head.size*8) / rate * float64(time.Second))
		d.serving = true
		b.sched.AtArg(now+txTime, b.svcDoneEv, head)
		return
	}
	d.serving = false
}

// onServiceDone fires when a DRR packet's last bit leaves the shared
// transmitter: the queue budget is returned, the packet is observed as
// forwarded (a middlebox tap on the aggregate sees packets at egress)
// and its delivery — plus the duplicate copy, if drawn — is scheduled
// with the delays captured at admission.
func (b *Bottleneck) onServiceDone(v any) {
	e := v.(*aggEntry)
	l := e.link
	d := &b.dirs[dirIndex(l.dir)]
	now := b.sched.Now()
	d.queuedBytes -= e.size
	arrival := now + e.delay
	l.observe(PacketEvent{Now: now, Pkt: e.pkt, Action: ActionForwarded, Arrival: arrival})
	l.dlvLane.At(arrival, e.pkt)
	if e.dup {
		l.dlvLane.At(now+e.dupDelay, e.pkt)
	}
	l.unref(e.pkt) // the service-done reference
	b.entryFree.Put(e)
	b.serve(d, now)
}

func dirIndex(dir Direction) int {
	if dir == ServerToClient {
		return 1
	}
	return 0
}
