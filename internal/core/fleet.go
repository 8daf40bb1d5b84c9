package core

import (
	"fmt"
	"sort"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/capture"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
	"h2privacy/internal/website"
)

// FleetConfig switches a trial from one point-to-point path to the
// shared-bottleneck topology: N client–server pairs — flow 0 is the
// target pair the TrialConfig describes, flows 1..N-1 are decoy page
// loads against small generated sites — all multiplexed over one
// aggregation link with a FIFO or DRR discipline. The adversary sits on
// that link with a K-flow interference budget: at SelectAt it ranks every
// flow by capture-visible flowseq features and arms the attack on the top
// K only.
//
// Determinism contract: flow 0 consumes the exact RNG streams a
// standalone trial does (its assembly is the standalone assembly); each
// decoy draws from its own root RNG derived from (Seed, flow index), so
// adding or removing decoys never shifts another flow's stream; the
// bottleneck itself draws nothing. At N=1 with the default (mirrored)
// bottleneck the trial is byte-identical to a Fleet=nil trial, including
// under adversary throttling.
type FleetConfig struct {
	// N is the total flow count including the target. Must be >= 1.
	N int
	// Budget is K, the adversary's concurrent-interference cap. 0 means
	// the adversary can observe but never touch a flow.
	Budget int
	// Bottleneck configures the shared aggregation link. Zero-value
	// fields mirror the per-flow link: BandwidthBps defaults to the flow
	// link rate and QueueLimit to the flow link's queue limit × N (so a
	// one-flow fleet shares nothing and stays bit-identical).
	Bottleneck netsim.BottleneckConfig
	// SelectAt is when the adversary first scores flows — after the
	// head-of-page burst is typically visible. Default 350 ms. Ignored at
	// N=1: the single flow is armed at construction, exactly like a
	// standalone attacked trial.
	SelectAt time.Duration
	// SelectEvery re-scans the flows until the budget is armed or
	// SelectUntil passes: a fixed single-shot scan misses targets whose
	// big response happens to start late, so the middlebox keeps watching.
	// Defaults 150 ms / 2 s. Rescans draw no RNG.
	SelectEvery time.Duration
	SelectUntil time.Duration
	// MinScore is the arming floor on the per-request response-size score:
	// flows below it are never armed, so early scans don't burn budget
	// slots on decoy noise (decoy responses top out near 6 KB). Default
	// 8192; negative disables the floor.
	MinScore int
	// Stagger spaces decoy page-load starts: decoy i starts at i×Stagger.
	// Default 5 ms.
	Stagger time.Duration
}

func (fc *FleetConfig) withDefaults(link netsim.LinkConfig) FleetConfig {
	out := *fc
	if out.SelectAt == 0 {
		out.SelectAt = 350 * time.Millisecond
	}
	if out.SelectEvery == 0 {
		out.SelectEvery = 150 * time.Millisecond
	}
	if out.SelectUntil == 0 {
		out.SelectUntil = 2 * time.Second
	}
	if out.MinScore == 0 {
		out.MinScore = 8192
	} else if out.MinScore < 0 {
		out.MinScore = 0
	}
	if out.Stagger == 0 {
		out.Stagger = 5 * time.Millisecond
	}
	if out.Bottleneck.BandwidthBps == 0 {
		out.Bottleneck.BandwidthBps = link.BandwidthBps
	}
	if out.Bottleneck.QueueLimit == 0 {
		limit := link.QueueLimit
		if limit == 0 {
			limit = 256 << 10
		}
		out.Bottleneck.QueueLimit = limit * out.N
	}
	return out
}

// DecoyOutcome is one decoy flow's page-load fate — the collateral-damage
// raw material (compare against the same seed at Budget 0).
type DecoyOutcome struct {
	// Flow is the decoy's synthesized flow ID (capture.FleetFlowID).
	Flow string
	// LoadTime is the virtual time of the last completed object; 0 when
	// nothing completed.
	LoadTime time.Duration
	// Completed counts finished objects; Broken and Resets are the
	// browser's verdict and §IV-D reset-cycle count.
	Completed int
	Broken    bool
	Resets    int
	// Targeted reports whether the adversary armed its attack plan or
	// its knobs on this decoy (a selection miss).
	Targeted bool
}

// FleetOutcome is the fleet topology's per-trial result, carried on
// TrialResult.Fleet.
type FleetOutcome struct {
	N          int
	Budget     int
	Discipline string
	// Selected are the flow indices the adversary armed, ascending.
	// TargetSelected reports whether flow 0 — the planted target — is
	// among them.
	Selected       []int
	TargetSelected bool
	// BudgetPeak is the high-water mark of concurrently-held budget slots.
	BudgetPeak int
	// Interventions totals the adversary's actions across every flow's
	// controller: drops + delayed GETs + jittered packets + throttles.
	// Exactly zero at Budget 0.
	Interventions int
	Decoys        []DecoyOutcome
	// AggC2S / AggS2C are the shared bottleneck's per-direction counters.
	AggC2S netsim.AggStats
	AggS2C netsim.AggStats
}

// CollateralStats is the attack's damage to flows it did not target,
// computed by pairing an attacked fleet trial against the Budget-0 trial
// at the same seed (FleetCollateral).
type CollateralStats struct {
	// Decoys is the paired decoy count; Inflated counts decoys whose page
	// load got slower under the attack.
	Decoys   int
	Inflated int
	// MeanInflationPct / MaxInflationPct summarize page-load-time
	// inflation across decoys completed in both runs.
	MeanInflationPct float64
	MaxInflationPct  float64
	// SpuriousResets counts extra decoy reset cycles the attack caused;
	// BrokenDelta counts decoy loads broken under attack but not at
	// baseline.
	SpuriousResets int
	BrokenDelta    int
}

// FleetCollateral pairs an attacked fleet trial with its same-seed
// Budget-0 baseline and measures what the attack did to the decoys. Both
// results must come from the same FleetConfig shape (same N); decoys pair
// by index.
func FleetCollateral(attacked, baseline *TrialResult) CollateralStats {
	var cs CollateralStats
	if attacked == nil || baseline == nil || attacked.Fleet == nil || baseline.Fleet == nil {
		return cs
	}
	n := len(attacked.Fleet.Decoys)
	if m := len(baseline.Fleet.Decoys); m < n {
		n = m
	}
	var sum float64
	var counted int
	for i := 0; i < n; i++ {
		a, b := attacked.Fleet.Decoys[i], baseline.Fleet.Decoys[i]
		cs.Decoys++
		if a.Resets > b.Resets {
			cs.SpuriousResets += a.Resets - b.Resets
		}
		if a.Broken && !b.Broken {
			cs.BrokenDelta++
		}
		if a.LoadTime > 0 && b.LoadTime > 0 {
			pct := (float64(a.LoadTime) - float64(b.LoadTime)) / float64(b.LoadTime) * 100
			sum += pct
			counted++
			if pct > 0 {
				cs.Inflated++
			}
			if pct > cs.MaxInflationPct {
				cs.MaxInflationPct = pct
			}
		}
	}
	if counted > 0 {
		cs.MeanInflationPct = sum / float64(counted)
	}
	return cs
}

// mixSeed derives decoy flow i's independent RNG root from the trial seed
// (splitmix64 finalizer): decoy streams never overlap the target's, and
// un-faulted flows consume identical streams no matter what the adversary
// does elsewhere.
func mixSeed(seed int64, flow int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(flow)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// validate rejects fleet shapes no trial can run.
func (fc *FleetConfig) validate(attack *adversary.AttackPlan) error {
	if fc.N < 1 {
		return fmt.Errorf("core: fleet N must be >= 1, got %d", fc.N)
	}
	if fc.Budget < 0 {
		return fmt.Errorf("core: fleet budget must be >= 0, got %d", fc.Budget)
	}
	if attack != nil {
		return attack.Validate()
	}
	return nil
}

// armsAtBuild reports whether the target is armed at construction. A
// fleet arms its interference on the flows it selects, but a one-flow
// fleet with budget arms the target like a standalone trial does, so N=1
// results match the single-pair tables.
func (fc *FleetConfig) armsAtBuild() bool { return fc.N == 1 && fc.Budget >= 1 }

// fleet is the shared-bottleneck topology around a testbed's target flow.
type fleet struct {
	cfg    FleetConfig
	bn     *netsim.Bottleneck
	decoys []flow // flows 1..N-1
	// analyzers feed the selector, one per flow (the target's first);
	// with features armed they also land every flow's rows in the sweep
	// collector.
	analyzers []*flowseq.Analyzer
	budget    *adversary.Budget
	selected  []int
	targeted  []bool // per flow: the attack plan or the knobs were armed on it
	tried     map[int]bool
	scan      func()
}

// buildFleet attaches the target to a shared bottleneck and builds the
// decoys around it, then schedules the adversary's target selection. ins
// is the target's instrument bundle. A decoy's bundle is the target's
// with the tracer and checker cleared and its own sibling analyzer; its
// links still feed packet conservation through the bottleneck. Its server
// keeps no transmission log, which only the target's DoM reads, and its
// monitor counts records but keeps none, which only the target's bursts
// read.
// Each decoy draws from its own root RNG (mixSeed), so adding or removing
// decoys never shifts another flow's stream.
func (tb *Testbed) buildFleet(ins instr.Bundle) error {
	cfg := &tb.cfg
	fc := cfg.Fleet.withDefaults(cfg.Link)
	sched := tb.Sched
	bn, err := netsim.NewBottleneck(sched, fc.Bottleneck, ins)
	if err != nil {
		return err
	}
	bn.Attach(tb.Path)
	fl := &fleet{cfg: fc, bn: bn, decoys: make([]flow, fc.N-1),
		analyzers: make([]*flowseq.Analyzer, fc.N), targeted: make([]bool, fc.N)}
	fl.analyzers[0] = ins.Flows
	// Decoys share the target's path, transport and application tuning,
	// but none of its workload options (plan, push defense, cross traffic)
	// or adversary knobs.
	dcfg := TrialConfig{Link: cfg.Link, TCP: cfg.TCP, Pool: cfg.Pool, Server: cfg.Server, Browser: cfg.Browser}
	dcfg.Server.PushEmblems = false
	dcfg.Browser.AcceptPush = false
	dins := ins
	dins.Trace, dins.Check = nil, nil
	// Decoy catalogs are built once per worker and shared, read-only, by
	// its trials; without an arena every trial builds its own.
	sites := pool.Local[website.Decoys](cfg.Pool)
	for i := 1; i < fc.N; i++ {
		dins.Flows = ins.Flows.Sibling(capture.FleetFlowID(i))
		d := &fl.decoys[i-1]
		*d, err = buildFlow(sched, simtime.NewRand(mixSeed(cfg.Seed, i)), &dcfg, sites.Site(i), sequentialPlan, dins)
		if err != nil {
			return fmt.Errorf("core: fleet decoy %d %w", i, err)
		}
		d.Server.DropTxLog()
		d.Monitor.DropRecords()
		bn.Attach(d.Path)
		sched.At(time.Duration(i)*fc.Stagger, d.start)
		fl.analyzers[i] = dins.Flows
	}

	fl.budget = adversary.NewBudget(fc.Budget, cfg.Check)
	if fc.armsAtBuild() {
		fl.budget.TryAcquire(0)
		fl.selected = []int{0}
		if tb.Driver != nil {
			fl.targeted[0] = true
			tb.Driver.SetOnRelease(func() { fl.budget.Release(0) })
		}
	} else if fc.Budget > 0 {
		fl.tried = make(map[int]bool)
		fl.scan = func() { tb.selectTargets(fl) }
		sched.At(fc.SelectAt, fl.scan)
	}
	tb.fleet = fl
	return nil
}

// sequentialPlan is a decoy's plan: its site's objects, in order.
func sequentialPlan(site *website.Site, _ *simtime.Rand) (*website.Plan, error) {
	return site.SequentialPlan()
}

// selectTargets is the middlebox's scan: it scores every flow and arms
// the attack (or the knobs) on the best until its budget is spent,
// re-scanning every SelectEvery until SelectUntil passes. The MinScore
// floor keeps early scans from arming decoy noise while the real target's
// response has not started yet; a flow is armed at most once (degrading
// releases the budget slot but never re-arms the same flow). Scans draw
// no RNG.
func (tb *Testbed) selectTargets(fl *fleet) {
	sched, cfg, fc := tb.Sched, &tb.cfg, &fl.cfg
	for _, fi := range adversary.SelectTargets(fl.analyzers, fc.Budget, fc.MinScore) {
		if len(fl.selected) >= fc.Budget {
			break
		}
		if fl.tried[fi] || !fl.budget.TryAcquire(fi) {
			continue
		}
		fl.tried[fi] = true
		fl.selected = append(fl.selected, fi)
		f := &tb.flow
		if fi > 0 {
			f = &fl.decoys[fi-1]
		}
		if cfg.Attack == nil {
			applyKnobs(sched, cfg, f.Controller)
			fl.targeted[fi] = true
			continue
		}
		drv, err := adversary.NewDriver(sched, f.Controller, f.Monitor, *cfg.Attack)
		if err != nil {
			fl.budget.Release(fi)
			continue
		}
		drv.SetOnRelease(func() { fl.budget.Release(fi) })
		fl.targeted[fi] = true
		tb.drivers = append(tb.drivers, drv)
		if fi == 0 {
			tb.Driver = drv
		}
	}
	if len(fl.selected) < fc.Budget && sched.Now()+fc.SelectEvery <= fc.SelectUntil {
		sched.At(sched.Now()+fc.SelectEvery, fl.scan)
	}
}

// outcome finalizes the decoys' features (the target's are finalized with
// the capture) and summarizes selection, budget, interventions (iv, every
// flow's controller counts summed), decoy page-load fates and the
// bottleneck's counters.
func (fl *fleet) outcome(tb *Testbed, iv adversary.ControllerStats) *FleetOutcome {
	if tb.cfg.Flows.Enabled() {
		for _, an := range fl.analyzers[1:] {
			an.Finalize()
		}
	}
	fc := &fl.cfg
	out := &FleetOutcome{
		N:             fc.N,
		Budget:        fc.Budget,
		Discipline:    fc.Bottleneck.Discipline.String(),
		BudgetPeak:    fl.budget.Peak(),
		Interventions: iv.DroppedPkts + iv.DelayedGETs + iv.JitteredPkts + iv.ThrottleEvents,
		AggC2S:        fl.bn.Stats(netsim.ClientToServer),
		AggS2C:        fl.bn.Stats(netsim.ServerToClient),
	}
	sort.Ints(fl.selected)
	out.Selected = fl.selected
	for _, fi := range fl.selected {
		if fi == 0 {
			out.TargetSelected = true
		}
	}
	for i := range fl.decoys {
		d := &fl.decoys[i]
		r := d.Browser.Result()
		var last time.Duration
		for _, at := range r.Completed {
			if at > last {
				last = at
			}
		}
		out.Decoys = append(out.Decoys, DecoyOutcome{
			Flow:      fl.analyzers[i+1].Flow(),
			LoadTime:  last,
			Completed: len(r.Completed),
			Broken:    r.Broken,
			Resets:    r.Resets,
			Targeted:  fl.targeted[i+1],
		})
	}
	return out
}

// addInterventions accumulates one controller's counts into sum.
func addInterventions(sum *adversary.ControllerStats, st adversary.ControllerStats) {
	sum.DelayedGETs += st.DelayedGETs
	sum.TotalGETDelay += st.TotalGETDelay
	sum.JitteredPkts += st.JitteredPkts
	sum.DroppedPkts += st.DroppedPkts
	sum.ThrottleEvents += st.ThrottleEvents
}

// addStats accumulates per-flow link counters for the aggregate
// conservation check.
func addStats(sum *netsim.LinkStats, st netsim.LinkStats) {
	sum.Sent += st.Sent
	sum.Delivered += st.Delivered
	sum.Duplicated += st.Duplicated
	sum.DroppedLoss += st.DroppedLoss
	sum.DroppedPolicy += st.DroppedPolicy
	sum.DroppedQueue += st.DroppedQueue
	sum.DroppedFault += st.DroppedFault
	sum.BytesDelivered += st.BytesDelivered
}
