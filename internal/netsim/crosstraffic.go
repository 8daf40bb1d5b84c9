package netsim

import (
	"math"
	"time"

	"h2privacy/internal/simtime"
)

// Background is the payload marker for cross-traffic packets: they consume
// link capacity and queue space like real packets but carry no transport
// segment. Endpoints and taps ignore them (the type assertion to
// *tcpsim.Segment fails), exactly as a gateway's other flows are invisible
// to one connection's state but very visible to its queues.
type Background struct{}

// CrossTraffic injects Poisson background load onto a path — the
// uncontrolled "everything else" a real campus gateway carries, which the
// clean simulation otherwise lacks. Packets are sent in both directions
// with Link.SendBackground, so they load the queues but are never
// delivered.
//
// A direction stops at its first tick once the generator is all that is
// left to run: when every pending scheduler entry is the other
// direction's tick or a background packet's queue drain. A background
// packet reaches nothing that acts on it and draws only from its own
// link's RNG, so once nothing else is pending no further packet can
// change the trial; stopping removes events without reordering the rest.
// Behind a Bottleneck, background packets are delivered through the
// shared lanes like any packet; the generator counts none of those
// entries as its own, so there it stops only once they have all fired
// and nothing else at all is pending.
type CrossTraffic struct {
	sched *simtime.Scheduler
	rng   *simtime.Rand
	path  *Path

	meanGap  time.Duration // mean inter-packet gap per direction
	size     int
	deadline time.Duration // ticks at or after it send nothing
	ticking  int           // directions whose next tick is pending
	sent     int
	tickEv   func(any) // onTick bound once; rescheduled via AfterArg
}

// NewCrossTraffic builds a generator producing roughly rateBps of load in
// each direction using pktSize-byte packets (0 → 1200).
func NewCrossTraffic(sched *simtime.Scheduler, rng *simtime.Rand, path *Path, rateBps float64, pktSize int) *CrossTraffic {
	if pktSize <= 0 {
		pktSize = 1200
	}
	ct := &CrossTraffic{sched: sched, rng: rng, path: path, size: pktSize, deadline: math.MaxInt64}
	ct.tickEv = ct.onTick
	if rateBps > 0 {
		gap := time.Duration(float64(pktSize*8) / rateBps * float64(time.Second))
		ct.meanGap = gap
	}
	return ct
}

// Start sends the first packet in each direction and keeps injecting
// until Stop, the StopAt deadline, or the generator is all that is left
// to run.
func (ct *CrossTraffic) Start() {
	if ct.meanGap <= 0 {
		return
	}
	ct.tick(ClientToServer)
	ct.tick(ServerToClient)
}

// Stop halts injection (pending scheduled packets still fire their timers
// but send nothing).
func (ct *CrossTraffic) Stop() { ct.deadline = ct.sched.Now() }

// StopAt halts injection at the first tick at or after virtual time d.
// Unlike a Stop scheduled at d, it leaves no pending event of its own, so
// the generator can still see that it is alone before d.
func (ct *CrossTraffic) StopAt(d time.Duration) { ct.deadline = d }

// Sent reports how many background packets were injected.
func (ct *CrossTraffic) Sent() int { return ct.sent }

func (ct *CrossTraffic) onTick(dir any) {
	ct.ticking--
	if ct.alone() {
		return
	}
	ct.tick(dir.(Direction))
}

func (ct *CrossTraffic) tick(dir Direction) {
	if ct.sched.Now() >= ct.deadline {
		return
	}
	ct.path.Link(dir).SendBackground(ct.size)
	ct.sent++
	// AfterArg with a pre-bound method value: Direction values are tiny
	// ints, so boxing them into any stays allocation-free.
	ct.sched.AfterArg(ct.rng.Exponential(ct.meanGap), ct.tickEv, dir)
	ct.ticking++
}

// alone reports whether every pending scheduler entry is the generator's
// own: its other direction's tick and its packets' queue drains.
func (ct *CrossTraffic) alone() bool {
	return ct.sched.Len() == ct.ticking+ct.path.c2s.bgQueued+ct.path.s2c.bgQueued
}
