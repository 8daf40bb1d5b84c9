package netsim

import (
	"fmt"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
)

// PathConfig describes the full client↔server path. The same physical
// medium carries both directions, so one config covers both links; use
// Asymmetric to override the return direction.
type PathConfig struct {
	Link LinkConfig
	// Asymmetric, when non-nil, configures the server→client link
	// separately (e.g. an asymmetric access link).
	Asymmetric *LinkConfig
}

// Path is the bidirectional client↔server connection through the
// middlebox: a client→server link and a server→client link that share a
// packet-ID space, plus convenience methods that apply adversary knobs to
// both directions at once (the paper throttles "both incoming and outgoing
// packets", §IV-C).
type Path struct {
	c2s, s2c *Link
}

// NewPath builds a path over the given scheduler. Each link gets its own
// forked RNG so loss/jitter draws in one direction do not perturb the
// other; both links are instrumented from ins.
func NewPath(sched *simtime.Scheduler, rng *simtime.Rand, cfg PathConfig, ins instr.Bundle) (*Path, error) {
	if sched == nil || rng == nil {
		return nil, fmt.Errorf("netsim: NewPath requires a scheduler and rng")
	}
	retCfg := cfg.Link
	if cfg.Asymmetric != nil {
		retCfg = *cfg.Asymmetric
	}
	nextID := new(uint64)
	c2s, err := NewLink(sched, rng.Fork(), ClientToServer, cfg.Link, nextID, ins)
	if err != nil {
		return nil, fmt.Errorf("netsim: client→server link: %w", err)
	}
	s2c, err := NewLink(sched, rng.Fork(), ServerToClient, retCfg, nextID, ins)
	if err != nil {
		return nil, fmt.Errorf("netsim: server→client link: %w", err)
	}
	return &Path{c2s: c2s, s2c: s2c}, nil
}

// Connect installs the two endpoints' delivery handlers: toServer receives
// client→server packets, toClient receives server→client packets.
func (p *Path) Connect(toServer, toClient Handler) {
	p.c2s.SetDeliver(toServer)
	p.s2c.SetDeliver(toClient)
}

// Link returns the link carrying the given direction.
func (p *Path) Link(dir Direction) *Link {
	if dir == ClientToServer {
		return p.c2s
	}
	return p.s2c
}

// Send transmits a packet in the given direction.
func (p *Path) Send(dir Direction, size int, payload any) {
	p.Link(dir).Send(size, payload)
}

// AddProcessor installs a middlebox processor on both directions. The
// processor can discriminate by pkt.Dir.
func (p *Path) AddProcessor(proc Processor) {
	p.c2s.AddProcessor(proc)
	p.s2c.AddProcessor(proc)
}

// AddTap installs a passive observer on both directions.
func (p *Path) AddTap(t Tap) {
	p.c2s.AddTap(t)
	p.s2c.AddTap(t)
}

// SetRecycle arms packet recycling on both links (see Link.SetRecycle):
// delivered or dropped packets hand their payload to release and return
// their structs to free. The transport layer installs this when a trial
// arena is armed; consumers must then not retain packets or payloads
// past their callbacks.
func (p *Path) SetRecycle(free *pool.FreeList[Packet], release func(payload any)) {
	p.c2s.SetRecycle(free, release)
	p.s2c.SetRecycle(free, release)
}

// SetBandwidth throttles both directions to the given rate in bits per
// second (the adversary's §IV-C knob).
func (p *Path) SetBandwidth(bps float64) {
	p.c2s.SetBandwidth(bps)
	p.s2c.SetBandwidth(bps)
}

// SetFaultLoss applies a fault-injected loss probability to both
// directions; 0 restores the configured base loss (see faults.go).
func (p *Path) SetFaultLoss(prob float64) {
	p.c2s.SetFaultLoss(prob)
	p.s2c.SetFaultLoss(prob)
}

// SetBlackout takes both directions down (or back up): while on, every
// offered packet is dropped as a fault.
func (p *Path) SetBlackout(on bool) {
	p.c2s.SetBlackout(on)
	p.s2c.SetBlackout(on)
}

// SetPropDelayExtra adds a fault-injected delay step to both directions'
// propagation delay for newly sent packets (an RTT step of 2·d).
func (p *Path) SetPropDelayExtra(d time.Duration) {
	p.c2s.SetPropDelayExtra(d)
	p.s2c.SetPropDelayExtra(d)
}
