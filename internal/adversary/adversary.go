// Package adversary implements the paper's network adversary: the
// controller that turns the compromised gateway's knobs (targeted per-GET
// jitter, random per-packet jitter, bandwidth throttling, targeted packet
// drops — §IV), and the staged attack driver that sequences them against
// the survey site exactly as §V describes.
package adversary

import (
	"time"

	"h2privacy/internal/capture"
	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/trace"
)

// Controller owns the middlebox knobs. Install its Processor on both
// directions of the path (netsim.Path.AddProcessor); then flip knobs at
// any virtual time.
type Controller struct {
	sched *simtime.Scheduler
	rng   *simtime.Rand
	path  *netsim.Path

	// Targeted per-GET spacing (§IV-B): the k-th GET since the knob was
	// set is delayed by k·d — the paper's "first request delayed by 0 ms,
	// second by d, third by 2d" schedule, which adds d to every
	// inter-arrival gap. The cumulative growth over a long page is
	// authentic: it is why the paper's connections broke under large
	// jitter and why accuracy decays for late objects (Table II).
	requestSpacing time.Duration
	getIndex       int
	lastGETExtra   time.Duration
	classifier     capture.GETClassifier

	// Random per-packet jitter, netem-style, per direction.
	randJitter map[netsim.Direction]time.Duration

	// Targeted drops (§IV-D): server→client payload packets are dropped
	// with dropRate probability until dropUntil; TCP-retransmitted
	// payload packets are dropped at dropRetransmitRate ("the adversary
	// drops the packets carrying retransmitted objects"), which starves
	// the loss-recovery trickle so the client must reset.
	dropRate           float64
	dropRetransmitRate float64
	dropUntil          time.Duration
	// dropSeqFence, when non-zero, exempts server→client payload entirely
	// below this sequence number from the drops (see DropNewServerData).
	// maxS2CSeq tracks the server's send-high as observed in-line, so a
	// fence can be planted at "everything sent so far".
	dropSeqFence uint64
	maxS2CSeq    uint64

	stats ControllerStats

	tr *trace.Tracer
}

// ControllerStats counts the controller's interventions.
type ControllerStats struct {
	DelayedGETs    int
	TotalGETDelay  time.Duration
	JitteredPkts   int
	DroppedPkts    int
	ThrottleEvents int
}

// NewController builds a controller for the given path. ins.Trace receives
// knob changes, per-GET delays and drop decisions as events. Stats counts
// every intervention (drops, delayed GETs, jittered packets, throttle
// changes); the registry shows them once the trial is published, never
// mid-trial.
func NewController(sched *simtime.Scheduler, rng *simtime.Rand, path *netsim.Path, ins instr.Bundle) *Controller {
	c := &Controller{
		sched:      sched,
		rng:        rng,
		path:       path,
		randJitter: make(map[netsim.Direction]time.Duration),
		tr:         ins.Trace,
	}
	path.AddProcessor(c)
	return c
}

var _ netsim.Processor = (*Controller)(nil)

// Stats returns a copy of the intervention counters.
func (c *Controller) Stats() ControllerStats { return c.stats }

// SetRequestSpacing sets the targeted jitter d (§IV-B). Setting it resets
// the request counter (the attack driver restarts the schedule per phase);
// zero disables.
func (c *Controller) SetRequestSpacing(d time.Duration) {
	c.requestSpacing = d
	c.getIndex = 0
	c.lastGETExtra = 0
}

// SetRandomJitter applies netem-style uniform per-packet delay in [0, max)
// to the given direction (the side-effect-laden part of the jitter knob).
func (c *Controller) SetRandomJitter(dir netsim.Direction, max time.Duration) {
	c.randJitter[dir] = max
}

// Throttle limits both directions' bandwidth (§IV-C).
func (c *Controller) Throttle(bps float64) {
	c.stats.ThrottleEvents++
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerAdversary, "throttle", trace.Num("bps", int64(bps)))
	}
	c.path.SetBandwidth(bps)
}

// DropServerData drops server→client payload packets with probability
// rate — and retransmitted ones with probability retransmitRate — for the
// given duration (§IV-D's targeted drops).
func (c *Controller) DropServerData(rate, retransmitRate float64, duration time.Duration) {
	c.dropRate = rate
	c.dropRetransmitRate = retransmitRate
	c.dropSeqFence = 0
	c.dropUntil = c.sched.Now() + duration
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerAdversary, "drop-window",
			trace.Num("rate_pct", int64(rate*100)), trace.Num("rtx_rate_pct", int64(retransmitRate*100)),
			trace.Dur("duration", duration))
	}
}

// DropNewServerData opens a drop window fenced at the server's current
// send-high: only payload bytes beyond every sequence number observed so
// far are subject to the drops; anything below the fence — retransmissions
// of data the victim's client already reset away — passes untouched. The
// fence is what makes a second starvation window survivable: the victim's
// transport keeps making acknowledgement progress on the old bytes (no
// consecutive-RTO abort) while the re-requested object, whose bytes are
// all new, starves until the client resets again. A plain second
// DropServerData window cannot do this: the victim's doubled reset
// patience outlasts its own transport's retransmission-abort budget.
func (c *Controller) DropNewServerData(rate, retransmitRate float64, duration time.Duration) {
	c.dropRate = rate
	c.dropRetransmitRate = retransmitRate
	c.dropSeqFence = c.maxS2CSeq
	c.dropUntil = c.sched.Now() + duration
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerAdversary, "drop-window",
			trace.Num("rate_pct", int64(rate*100)), trace.Num("rtx_rate_pct", int64(retransmitRate*100)),
			trace.Dur("duration", duration), trace.Num("fence", int64(c.dropSeqFence)))
	}
}

// StopDrops closes any open drop window immediately (the adaptive driver
// stops dropping the moment the clean-slate reset is detected).
func (c *Controller) StopDrops() {
	c.dropRate = 0
	c.dropRetransmitRate = 0
	c.dropSeqFence = 0
	c.dropUntil = 0
}

// DropsActive reports whether a drop window is currently open.
func (c *Controller) DropsActive() bool {
	return (c.dropRate > 0 || c.dropRetransmitRate > 0) && c.sched.Now() < c.dropUntil
}

// WipeKnobs implements netsim.KnobWiper: a middlebox restart loses all
// volatile knob state — jitter schedules, throttles stay (they are qdisc
// config reapplied at boot is not modeled; the paper's tc settings live in
// the kernel and do not survive either), and the drop window closes. The
// GET classifier's stream position is NOT wiped: the passive monitor is a
// separate capture box in the §V setup and keeps its position, and the
// controller's in-line classifier models state mirrored from it.
func (c *Controller) WipeKnobs() {
	c.requestSpacing = 0
	c.getIndex = 0
	c.lastGETExtra = 0
	c.maxS2CSeq = 0
	c.randJitter = make(map[netsim.Direction]time.Duration)
	c.StopDrops()
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerAdversary, "knobs-wiped")
	}
}

// Process implements netsim.Processor.
func (c *Controller) Process(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
	seg, ok := pkt.Payload.(*tcpsim.Segment)
	if !ok {
		return netsim.Verdict{}
	}
	var v netsim.Verdict
	switch pkt.Dir {
	case netsim.ClientToServer:
		if c.requestSpacing > 0 && len(seg.Payload) > 0 {
			if seg.Retransmit {
				// netem's delay discipline applies to retransmissions
				// too: a TCP-retransmitted GET must not overtake its
				// delayed original, or the spacing collapses. It gets
				// the same hold as the most recent original.
				v.ExtraDelay += c.lastGETExtra
				c.stats.TotalGETDelay += c.lastGETExtra
			} else if n := c.classifier.Count(seg.Payload); n > 0 {
				c.getIndex += n
				extra := time.Duration(c.getIndex) * c.requestSpacing
				c.lastGETExtra = extra
				v.ExtraDelay += extra
				c.stats.DelayedGETs++
				c.stats.TotalGETDelay += extra
				if c.tr.Enabled() {
					c.tr.Emit(trace.LayerAdversary, "delay-get",
						trace.Num("get", int64(c.getIndex)), trace.Dur("extra", extra))
				}
			}
		}
	case netsim.ServerToClient:
		if end := seg.Seq + uint64(len(seg.Payload)); len(seg.Payload) > 0 && end > c.maxS2CSeq {
			c.maxS2CSeq = end
		}
		if (c.dropRate > 0 || c.dropRetransmitRate > 0) && now < c.dropUntil && len(seg.Payload) > 0 &&
			(c.dropSeqFence == 0 || seg.Seq+uint64(len(seg.Payload)) > c.dropSeqFence) {
			rate := c.dropRate
			if seg.Retransmit {
				rate = c.dropRetransmitRate
			}
			if c.rng.Bool(rate) {
				c.stats.DroppedPkts++
				if c.tr.Enabled() {
					rtx := int64(0)
					if seg.Retransmit {
						rtx = 1
					}
					c.tr.Emit(trace.LayerAdversary, "drop",
						trace.Num("id", int64(pkt.ID)), trace.Num("len", int64(len(seg.Payload))),
						trace.Num("rtx", rtx))
				}
				return netsim.Verdict{Drop: true}
			}
		}
	}
	if max := c.randJitter[pkt.Dir]; max > 0 {
		v.ExtraDelay += c.rng.Uniform(0, max)
		c.stats.JitteredPkts++
	}
	return v
}
