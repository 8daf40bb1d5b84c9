package netsim

import (
	"fmt"
	"sort"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/simtime"
	"h2privacy/internal/trace"
)

// This file is the deterministic fault-injection layer: time-scripted
// per-link fault events — Gilbert–Elliott burst-loss episodes, bandwidth
// flaps, full blackouts, RTT step changes, and a middlebox restart that
// wipes the adversary's volatile knob state — composed into named
// Scenarios. Everything is driven by the trial's scheduler and a forked
// seed stream, so a scenario's entire fault timeline is reproducible from
// (seed, scenario name): episode lengths come from the injector's own RNG
// fork and transition times from virtual time, never from the wall clock.
// A trial without a scenario takes no extra RNG draws and schedules no
// events, so fault support changes nothing for existing seeds.

// KnobWiper is the middlebox-resident state a FaultMboxRestart wipes: the
// adversary.Controller implements it. The wipe models a gateway qdisc
// restart — volatile knob state (jitter schedules, drop windows) is lost,
// while the passive monitor (a separate capture box) keeps its stream
// position.
type KnobWiper interface {
	WipeKnobs()
}

// FaultTransition is one entry of the injector's fault log.
type FaultTransition struct {
	At     time.Duration
	Kind   string // burst-loss | bandwidth | blackout | rtt-step | mbox-restart
	Detail string
}

// Injector schedules fault events against one path. Build it with
// NewInjector, optionally attach a KnobWiper, then either arm a named Scenario or call the Schedule* primitives
// directly. All primitives may be composed; each owns an RNG fork so their
// draws never perturb each other.
type Injector struct {
	sched *simtime.Scheduler
	rng   *simtime.Rand
	path  *Path
	wiper KnobWiper

	log []FaultTransition

	tr *trace.Tracer
}

// NewInjector builds a fault injector over the path. rng should be a fork
// of the trial's seed stream dedicated to fault timing. ins.Trace receives
// one event per fault transition (LayerNetsim, kind "fault"); Log keeps
// them all.
func NewInjector(sched *simtime.Scheduler, rng *simtime.Rand, path *Path, ins instr.Bundle) *Injector {
	if sched == nil || rng == nil || path == nil {
		panic("netsim: NewInjector requires a scheduler, rng and path")
	}
	return &Injector{sched: sched, rng: rng, path: path, tr: ins.Trace}
}

// SetWiper installs the knob-state target of ScheduleMboxRestart.
func (in *Injector) SetWiper(w KnobWiper) { in.wiper = w }

// Log returns the fault transitions applied so far, in virtual-time order.
func (in *Injector) Log() []FaultTransition { return in.log }

// transition records and traces one fault state change.
func (in *Injector) transition(kind, detail string) {
	in.log = append(in.log, FaultTransition{At: in.sched.Now(), Kind: kind, Detail: detail})
	if in.tr.Enabled() {
		in.tr.Emit(trace.LayerNetsim, "fault",
			trace.Str("kind", kind), trace.Str("detail", detail))
	}
}

// ScheduleBurstLoss runs a Gilbert–Elliott burst-loss process on both
// links from start until `until`: alternating bad episodes (loss
// probability pBad, mean length meanBad) and good episodes (base loss,
// mean length meanGood), episode lengths drawn exponentially from the
// injector's own fork. The process starts in the bad state at `start` and
// always leaves the link clean at `until`.
func (in *Injector) ScheduleBurstLoss(start, until time.Duration, pBad float64, meanBad, meanGood time.Duration) {
	if until <= start || pBad <= 0 || meanBad <= 0 || meanGood <= 0 {
		panic("netsim: ScheduleBurstLoss requires until > start, pBad > 0 and positive episode means")
	}
	rng := in.rng.Fork()
	var step func(bad bool)
	step = func(bad bool) {
		now := in.sched.Now()
		if now >= until {
			in.path.SetFaultLoss(0)
			in.transition("burst-loss", "ended")
			return
		}
		var mean time.Duration
		if bad {
			in.path.SetFaultLoss(pBad)
			in.transition("burst-loss", fmt.Sprintf("bad p=%.2f", pBad))
			mean = meanBad
		} else {
			in.path.SetFaultLoss(0)
			in.transition("burst-loss", "good")
			mean = meanGood
		}
		next := now + rng.Exponential(mean)
		if next > until {
			next = until
		}
		in.sched.At(next, func() { step(!bad) })
	}
	in.sched.At(start, func() { step(true) })
}

// ScheduleBandwidthFlap oscillates both links between their configured
// rate and lowBps, flipping every halfPeriod from start until `until`,
// then restores the rates captured at arm time. A flap fights any
// throttle the adversary applies in between — deliberately: faults do not
// coordinate with the attack.
func (in *Injector) ScheduleBandwidthFlap(start, until, halfPeriod time.Duration, lowBps float64) {
	if until <= start || halfPeriod <= 0 || lowBps <= 0 {
		panic("netsim: ScheduleBandwidthFlap requires until > start, halfPeriod > 0 and lowBps > 0")
	}
	origC2S := in.path.Link(ClientToServer).Bandwidth()
	origS2C := in.path.Link(ServerToClient).Bandwidth()
	restore := func() {
		in.path.Link(ClientToServer).SetBandwidth(origC2S)
		in.path.Link(ServerToClient).SetBandwidth(origS2C)
	}
	var flip func(low bool)
	flip = func(low bool) {
		now := in.sched.Now()
		if now >= until {
			restore()
			in.transition("bandwidth", "restored")
			return
		}
		if low {
			in.path.SetBandwidth(lowBps)
			in.transition("bandwidth", fmt.Sprintf("low %.0f Mbps", lowBps/1e6))
		} else {
			restore()
			in.transition("bandwidth", "high")
		}
		next := now + halfPeriod
		if next > until {
			next = until
		}
		in.sched.At(next, func() { flip(!low) })
	}
	in.sched.At(start, func() { flip(true) })
}

// ScheduleBlackout takes the whole path down for dur starting at `at`:
// every packet offered to either link is dropped as a fault.
func (in *Injector) ScheduleBlackout(at, dur time.Duration) {
	if dur <= 0 {
		panic("netsim: ScheduleBlackout requires a positive duration")
	}
	in.sched.At(at, func() {
		in.path.SetBlackout(true)
		in.transition("blackout", fmt.Sprintf("down %v", dur))
	})
	in.sched.At(at+dur, func() {
		in.path.SetBlackout(false)
		in.transition("blackout", "up")
	})
}

// ScheduleRTTStep changes both links' extra propagation delay to delta at
// `at` (an RTT step of 2·delta). A second call with delta 0 steps back.
// Packets already in flight keep their scheduled arrival.
func (in *Injector) ScheduleRTTStep(at, delta time.Duration) {
	in.sched.At(at, func() {
		in.path.SetPropDelayExtra(delta)
		in.transition("rtt-step", fmt.Sprintf("extra %v", delta))
	})
}

// ScheduleMboxRestart wipes the attached KnobWiper's volatile knob state
// at `at` — the compromised gateway's qdisc restarting mid-attack. No-op
// when no wiper is attached (the transition is still logged).
func (in *Injector) ScheduleMboxRestart(at time.Duration) {
	in.sched.At(at, func() {
		if in.wiper != nil {
			in.wiper.WipeKnobs()
		}
		in.transition("mbox-restart", "knobs wiped")
	})
}

// Scenario is a named, composable fault schedule.
type Scenario struct {
	Name string
	Desc string
	arm  func(in *Injector)
}

// Arm schedules the scenario's fault events on the injector.
func (s Scenario) Arm(in *Injector) { s.arm(in) }

// scenarios is the catalog. Times are laid against the §V attack timeline
// (trigger ≈ 0.5–1.5 s, drop window ≈ 5 s) so every scenario perturbs the
// attack's critical phases.
var scenarios = map[string]Scenario{
	"bursty-loss": {
		Name: "bursty-loss",
		Desc: "Gilbert–Elliott burst loss (bad p=0.75, ~700ms episodes) for the first 12s",
		arm: func(in *Injector) {
			in.ScheduleBurstLoss(100*time.Millisecond, 12*time.Second, 0.75,
				700*time.Millisecond, 700*time.Millisecond)
		},
	},
	"bw-flap": {
		Name: "bw-flap",
		Desc: "bandwidth oscillates between the configured rate and 40 Mbps every 1s for 25s",
		arm: func(in *Injector) {
			in.ScheduleBandwidthFlap(500*time.Millisecond, 25*time.Second, time.Second, 40e6)
		},
	},
	"blackout-2s": {
		Name: "blackout-2s",
		Desc: "full link blackout from t=2s to t=4s",
		arm: func(in *Injector) {
			in.ScheduleBlackout(2*time.Second, 2*time.Second)
		},
	},
	"rtt-step": {
		Name: "rtt-step",
		Desc: "one-way delay steps up by 40ms at t=1s, back at t=12s",
		arm: func(in *Injector) {
			in.ScheduleRTTStep(time.Second, 40*time.Millisecond)
			in.ScheduleRTTStep(12*time.Second, 0)
		},
	},
	"mbox-restart": {
		Name: "mbox-restart",
		Desc: "middlebox restarts at t=3s: 300ms outage and all adversary knob state wiped",
		arm: func(in *Injector) {
			in.ScheduleBlackout(3*time.Second, 300*time.Millisecond)
			in.ScheduleMboxRestart(3 * time.Second)
		},
	},
	"storm": {
		Name: "storm",
		Desc: "compound: bursty loss + bandwidth flaps + an RTT step, all at once",
		arm: func(in *Injector) {
			in.ScheduleBurstLoss(100*time.Millisecond, 30*time.Second, 0.4,
				300*time.Millisecond, 2*time.Second)
			in.ScheduleBandwidthFlap(time.Second, 20*time.Second, 2*time.Second, 60e6)
			in.ScheduleRTTStep(1500*time.Millisecond, 25*time.Millisecond)
		},
	},
}

// LookupScenario returns the named scenario.
func LookupScenario(name string) (Scenario, bool) {
	s, ok := scenarios[name]
	return s, ok
}

// ScenarioNames lists the catalog in sorted order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Scenarios returns the catalog in name order.
func Scenarios() []Scenario {
	out := make([]Scenario, 0, len(scenarios))
	for _, name := range ScenarioNames() {
		out = append(out, scenarios[name])
	}
	return out
}
