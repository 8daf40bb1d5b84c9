package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/check"
	"h2privacy/internal/instr"
	"h2privacy/internal/pool"
	"h2privacy/internal/trace"
	"h2privacy/internal/website"
)

// TestFleetN1Identity pins the degenerate-fleet contract: a one-flow fleet
// with budget — mirrored bottleneck, attack armed at construction — is
// deep-equal to the standalone attacked trial at the same seed, field for
// field. This is what lets the fleet table's N=1 row stand in for the
// single-pair robustness numbers.
func TestFleetN1Identity(t *testing.T) {
	plan := adversary.DefaultPlan()
	for _, seed := range []int64{42, 4242, 7} {
		base := TrialConfig{Seed: seed, Attack: &plan}
		a, err := RunTrial(base)
		if err != nil {
			t.Fatal(err)
		}
		fcfg := base
		fcfg.Fleet = &FleetConfig{N: 1, Budget: 1}
		b, err := RunTrial(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.Fleet == nil {
			t.Fatalf("seed %d: fleet trial missing FleetOutcome", seed)
		}
		if !b.Fleet.TargetSelected || b.Fleet.BudgetPeak != 1 {
			t.Errorf("seed %d: N=1 fleet selected=%v peak=%d, want target armed inline",
				seed, b.Fleet.Selected, b.Fleet.BudgetPeak)
		}
		b.Fleet = nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: fleet N=1 differs from standalone: standalone outcome=%v fleet outcome=%v",
				seed, a.Outcome, b.Outcome)
		}
	}
}

// TestFleetN1IdentityChecked repeats the N=1 identity with every invariant
// checker armed: the fleet's aggregate-conservation epilogue must add no
// violations and must not perturb the violation count the standalone
// epilogue reports.
func TestFleetN1IdentityChecked(t *testing.T) {
	plan := adversary.DefaultPlan()
	rec := check.NewRecorder()
	a, err := RunTrial(TrialConfig{Seed: 42, Attack: &plan, Bundle: instr.Bundle{Check: check.New(42, 0, rec)}})
	if err != nil {
		t.Fatal(err)
	}
	recF := check.NewRecorder()
	b, err := RunTrial(TrialConfig{Seed: 42, Attack: &plan,
		Fleet: &FleetConfig{N: 1, Budget: 1}, Bundle: instr.Bundle{Check: check.New(42, 0, recF)}})
	if err != nil {
		t.Fatal(err)
	}
	if a.CheckViolations != 0 || b.CheckViolations != 0 {
		t.Errorf("violations: standalone=%d fleet=%d\n%s%s",
			a.CheckViolations, b.CheckViolations, rec.Report(), recF.Report())
	}
	b.Fleet = nil
	if !reflect.DeepEqual(a, b) {
		t.Error("checked fleet N=1 differs from checked standalone")
	}
}

// TestFleetTargetSelection plants the paper's target page among 99 decoy
// page loads behind one bottleneck and verifies the adversary's
// capture-feature selector finds it — the fleet analogue of the §V attack
// premise that the middlebox can pick its victim out of the crowd.
func TestFleetTargetSelection(t *testing.T) {
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	res, err := RunTrial(TrialConfig{Seed: 4242, Attack: &plan,
		Fleet: &FleetConfig{N: 100, Budget: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fo := res.Fleet
	if !fo.TargetSelected || len(fo.Selected) != 1 || fo.Selected[0] != 0 {
		t.Fatalf("selector picked %v out of N=100, want exactly the planted target [0]", fo.Selected)
	}
	if fo.BudgetPeak != 1 {
		t.Errorf("budget peak %d, want 1", fo.BudgetPeak)
	}
	if res.Outcome != adversary.OutcomeCleanSlate && res.Outcome != adversary.OutcomeRetryCleanSlate {
		t.Errorf("attack on selected target ended %v, want clean slate", res.Outcome)
	}
	if len(fo.Decoys) != 99 {
		t.Fatalf("decoy outcomes: %d, want 99", len(fo.Decoys))
	}
	for _, d := range fo.Decoys {
		if d.Targeted {
			t.Errorf("decoy %s marked targeted; budget 1 went to the planted target", d.Flow)
		}
		if d.Completed == 0 {
			t.Errorf("decoy %s completed nothing", d.Flow)
		}
	}
}

// decoyCatalogDump serializes a decoy's shared catalog and plan: every
// object, its lookups by id and path, the sum of its body bytes and every
// plan step.
func decoyCatalogDump(s *website.Site) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Host)
	for j := range s.Objects {
		o := &s.Objects[j]
		sum := 0
		for _, c := range s.Body(o) {
			sum += int(c)
		}
		fmt.Fprintf(&b, "%+v byID=%v byPath=%v body=%d\n", *o, s.Object(o.ID) == o, s.Lookup(o.Path) == o, sum)
	}
	plan, err := s.SequentialPlan()
	fmt.Fprintf(&b, "%+v %v\n", *plan, err)
	return b.String()
}

// TestFleetLeavesDecoyCatalogsUnchanged pins that the memoized decoy
// catalogs and plans, shared by every trial on a worker, are read-only in
// use: a fleet trial on the worker's arena uses the catalogs it holds and
// leaves every catalog and plan as it found them.
func TestFleetLeavesDecoyCatalogsUnchanged(t *testing.T) {
	const n = 30
	arena := pool.New()
	memo := pool.Local[website.Decoys](arena)
	before := make([]string, n)
	sites := make([]*website.Site, n)
	for i := 1; i < n; i++ {
		sites[i] = memo.Site(i)
		before[i] = decoyCatalogDump(sites[i])
	}
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	tb, err := NewTestbed(TrialConfig{Seed: 4242, Attack: &plan, Pool: arena, Fleet: &FleetConfig{N: n, Budget: 2, MinScore: -1}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run()
	for i := 1; i < n; i++ {
		if tb.fleet.decoys[i-1].Site != sites[i] {
			t.Fatalf("decoy %d built its own catalog", i)
		}
		if after := decoyCatalogDump(sites[i]); after != before[i] {
			t.Fatalf("decoy %d catalog changed by a fleet trial:\n--- before ---\n%s--- after ---\n%s", i, before[i], after)
		}
	}
}

// TestFleetBudgetZero is the negative arm: with K=0 the adversary observes
// but never touches a flow, so interventions are exactly zero, nothing is
// selected, and pairing the trial against itself yields all-zero
// collateral stats.
func TestFleetBudgetZero(t *testing.T) {
	plan := adversary.DefaultPlan()
	cfg := TrialConfig{Seed: 4242, Attack: &plan, Fleet: &FleetConfig{N: 50, Budget: 0}}
	a, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fo := a.Fleet
	if fo.Interventions != 0 || fo.BudgetPeak != 0 || len(fo.Selected) != 0 {
		t.Errorf("budget 0 trial intervened: interventions=%d peak=%d selected=%v",
			fo.Interventions, fo.BudgetPeak, fo.Selected)
	}
	for _, d := range fo.Decoys {
		if d.Targeted || d.Broken || d.Resets != 0 {
			t.Errorf("budget 0 decoy %s: targeted=%v broken=%v resets=%d",
				d.Flow, d.Targeted, d.Broken, d.Resets)
		}
	}
	cs := FleetCollateral(a, b)
	if cs != (CollateralStats{Decoys: len(fo.Decoys)}) {
		t.Errorf("budget 0 self-collateral not zero: %+v", cs)
	}
}

// TestFleetDeterminism reruns an attacked fleet trial and requires the
// full result — selection, outcomes, aggregate stats, every decoy — to be
// deep-equal: the shared bottleneck and the selection loop draw nothing
// from RNG and schedule deterministically.
func TestFleetDeterminism(t *testing.T) {
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	cfg := TrialConfig{Seed: 99, Attack: &plan, Fleet: &FleetConfig{N: 25, Budget: 2}}
	a, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("fleet trial is not deterministic across reruns")
	}
}

// TestFleetBudgetCap disables the arming floor so the first scan sees
// every flow qualify, and verifies the budget still caps concurrent
// interference at K.
func TestFleetBudgetCap(t *testing.T) {
	plan := adversary.DefaultPlan()
	res, err := RunTrial(TrialConfig{Seed: 11, Attack: &plan,
		Fleet: &FleetConfig{N: 20, Budget: 3, MinScore: -1}})
	if err != nil {
		t.Fatal(err)
	}
	fo := res.Fleet
	if len(fo.Selected) != 3 {
		t.Errorf("selected %v, want exactly 3 flows with the floor disabled", fo.Selected)
	}
	if fo.BudgetPeak > 3 {
		t.Errorf("budget peak %d exceeds K=3", fo.BudgetPeak)
	}
}

// TestFleetCheckedClean arms every invariant checker — including the
// aggregate-conservation and budget shadows — on a multi-flow attacked
// trial and requires zero violations.
func TestFleetCheckedClean(t *testing.T) {
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	rec := check.NewRecorder()
	res, err := RunTrial(TrialConfig{Seed: 4242, Attack: &plan,
		Fleet: &FleetConfig{N: 40, Budget: 2}, Bundle: instr.Bundle{Check: check.New(4242, 0, rec)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckViolations != 0 {
		t.Errorf("%d violations on checked fleet trial:\n%s", res.CheckViolations, rec.Report())
	}
	if res.Fleet.BudgetPeak > 2 {
		t.Errorf("budget peak %d exceeds K=2", res.Fleet.BudgetPeak)
	}
}

// TestFleetDecoyStagger verifies decoy page loads actually start staggered:
// with a coarse stagger the later decoys must finish later than the first.
func TestFleetDecoyStagger(t *testing.T) {
	res, err := RunTrial(TrialConfig{Seed: 5,
		Fleet: &FleetConfig{N: 4, Budget: 0, Stagger: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Fleet.Decoys
	if len(d) != 3 {
		t.Fatalf("want 3 decoys, got %d", len(d))
	}
	if !(d[2].LoadTime > d[0].LoadTime) {
		t.Errorf("staggered decoys out of order: first=%v last=%v", d[0].LoadTime, d[2].LoadTime)
	}
}

// TestFleetKnobsHonourDropFrom arms the single-knob drop study (no staged
// attack) on a fleet: the selected flow's drop window must open at
// DropFrom, as it does in a standalone trial, not at selection time.
func TestFleetKnobsHonourDropFrom(t *testing.T) {
	tr := trace.New(nil, trace.Config{})
	const dropFrom = 2 * time.Second
	res, err := RunTrial(TrialConfig{Seed: 4242,
		DropRate: 0.5, DropFrom: dropFrom, DropDuration: time.Second,
		Fleet: &FleetConfig{N: 10, Budget: 1}, Bundle: instr.Bundle{Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fleet.TargetSelected {
		t.Fatalf("selector picked %v, want the planted target", res.Fleet.Selected)
	}
	var opened []time.Duration
	for _, ev := range tr.Events() {
		if ev.Layer == trace.LayerAdversary && ev.Kind == "drop-window" {
			opened = append(opened, ev.At)
		}
	}
	if len(opened) != 1 || opened[0] != dropFrom {
		t.Errorf("target drop windows opened at %v, want exactly one at %v", opened, dropFrom)
	}
}

// TestFleetKnobSelectionMarksTargeted: a fleet with no attack plan arms
// the single-parameter knobs on the flows its scan selects, and every
// selected decoy must read Targeted — a knob-armed selection miss is as
// visible in DecoyOutcome as one armed with the staged attack.
func TestFleetKnobSelectionMarksTargeted(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res, err := RunTrial(TrialConfig{Seed: seed,
			RequestSpacing: 50 * time.Millisecond, DropRate: 0.8,
			DropFrom: 500 * time.Millisecond, DropDuration: time.Second,
			Fleet: &FleetConfig{N: 10, Budget: 2, MinScore: -1}})
		if err != nil {
			t.Fatal(err)
		}
		fo := res.Fleet
		decoysSelected := 0
		for _, fi := range fo.Selected {
			if fi == 0 {
				continue
			}
			decoysSelected++
			if d := fo.Decoys[fi-1]; !d.Targeted {
				t.Errorf("seed %d: decoy %s selected and knob-armed but not Targeted", seed, d.Flow)
			}
		}
		targeted := 0
		for _, d := range fo.Decoys {
			if d.Targeted {
				targeted++
			}
		}
		if targeted != decoysSelected {
			t.Errorf("seed %d: %d decoys Targeted, %d selected", seed, targeted, decoysSelected)
		}
	}
}
