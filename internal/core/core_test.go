package core

import (
	"strings"
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/instr"
	"h2privacy/internal/obs"
	"h2privacy/internal/trace"
	"h2privacy/internal/website"
)

func TestBaselineTrialCompletes(t *testing.T) {
	res, err := RunTrial(TrialConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Broken {
		t.Fatalf("baseline broken: %s", res.BrokenReason)
	}
	if len(res.Completed) != 48 {
		t.Fatalf("completed %d objects", len(res.Completed))
	}
	if res.GETs < 48 {
		t.Fatalf("monitor counted %d GETs, want ≥48", res.GETs)
	}
	if len(res.TrueSeq) != website.PartyCount || len(res.DisplaySeq) != website.PartyCount {
		t.Fatalf("sequences: %v / %v", res.TrueSeq, res.DisplaySeq)
	}
}

func TestTrialDeterminism(t *testing.T) {
	a, err := RunTrial(TrialConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(TrialConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.GETs != b.GETs || a.MonitorRetransmits != b.MonitorRetransmits ||
		a.AppRetries != b.AppRetries || len(a.Bursts) != len(b.Bursts) {
		t.Fatalf("same seed diverged: %+v vs %+v", a.GETs, b.GETs)
	}
	for obj, dom := range a.BestDoM {
		if b.BestDoM[obj] != dom {
			t.Fatalf("DoM diverged for %s: %v vs %v", obj, dom, b.BestDoM[obj])
		}
	}
	c, err := RunTrial(TrialConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.GETs == c.GETs && a.MonitorRetransmits == c.MonitorRetransmits && len(a.Bursts) == len(c.Bursts) {
		t.Log("warning: different seeds produced identical summary (possible but unlikely)")
	}
}

func TestAttackTrialProducesVerdicts(t *testing.T) {
	plan := adversary.DefaultPlan()
	res, err := RunTrial(TrialConfig{Seed: 8, Attack: &plan, Perm: []int{3, 1, 4, 0, 7, 6, 2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resets == 0 && !res.Broken {
		t.Fatal("attack never forced a reset")
	}
	if got := res.Perm; len(got) != website.PartyCount || got[0] != 3 {
		t.Fatalf("perm = %v", got)
	}
	// The attack should usually succeed on this seed's emblems.
	hits := 0
	for k := 0; k < website.PartyCount; k++ {
		if res.SequenceRankCorrect(k) {
			hits++
		}
	}
	if hits == 0 && !res.Broken {
		t.Fatalf("no emblem ranks inferred; inferred=%v true=%v", res.InferredSeq, res.TrueSeq)
	}
}

func TestSingleKnobConfigs(t *testing.T) {
	res, err := RunTrial(TrialConfig{
		Seed:           5,
		RequestSpacing: 50 * time.Millisecond,
		RandomJitter:   time.Millisecond,
		ThrottleBps:    800e6,
		DropRate:       0.5,
		DropFrom:       time.Second,
		DropDuration:   500 * time.Millisecond,
		Duration:       60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GETs == 0 {
		t.Fatal("no traffic observed")
	}
}

func TestShuffledEmblemOrderDecouples(t *testing.T) {
	decoupled := false
	for seed := int64(0); seed < 5; seed++ {
		res, err := RunTrial(TrialConfig{Seed: seed, ShuffledEmblemOrder: true, Duration: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.TrueSeq {
			if res.TrueSeq[i] != res.DisplaySeq[i] {
				decoupled = true
			}
		}
	}
	if !decoupled {
		t.Fatal("shuffled plans never decoupled request from display order")
	}
}

func TestObjectSuccessCriteria(t *testing.T) {
	r := &TrialResult{
		BestCompleteDoM: map[string]float64{"a": 0, "b": 0.5, "c": 0},
		Identified:      map[string]bool{"a": true, "b": true},
	}
	if !r.ObjectSuccess("a") {
		t.Fatal("serialized+identified must succeed")
	}
	if r.ObjectSuccess("b") {
		t.Fatal("multiplexed object must not succeed")
	}
	if r.ObjectSuccess("c") {
		t.Fatal("unidentified object must not succeed")
	}
	if r.ObjectSuccess("missing") {
		t.Fatal("absent object must not succeed")
	}
}

func TestSequenceRankCorrect(t *testing.T) {
	r := &TrialResult{
		DisplaySeq:  []string{"x", "y", "z"},
		InferredSeq: []string{"x", "q"},
	}
	if !r.SequenceRankCorrect(0) || r.SequenceRankCorrect(1) || r.SequenceRankCorrect(2) || r.SequenceRankCorrect(9) {
		t.Fatal("rank matching broken")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := RunTrial(TrialConfig{Seed: 1, Perm: []int{0, 1}}); err == nil {
		t.Fatal("bad permutation accepted")
	}
}

func TestServerPushDefenseTrial(t *testing.T) {
	plan := adversary.DefaultPlan()
	res, err := RunTrial(TrialConfig{Seed: 9, Attack: &plan, ServerPush: true})
	if err != nil {
		t.Fatal(err)
	}
	// With push, the attack must not recover the ranking.
	correct := 0
	for k := 0; k < website.PartyCount; k++ {
		if res.SequenceRankCorrect(k) {
			correct++
		}
	}
	if correct > website.PartyCount/2 {
		t.Fatalf("push defense leaked %d/%d ranks", correct, website.PartyCount)
	}
}

func TestTimeline(t *testing.T) {
	plan := adversary.DefaultPlan()
	tb, err := NewTestbed(TrialConfig{Seed: 3, Attack: &plan})
	if err != nil {
		t.Fatal(err)
	}
	res := tb.Run()
	evs := tb.Timeline(res)
	if len(evs) < 50 {
		t.Fatalf("timeline has %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("timeline not sorted")
		}
	}
	var sawPhase, sawGET, sawBurst bool
	for _, e := range evs {
		switch e.Actor {
		case "adversary":
			sawPhase = true
		case "browser":
			sawGET = true
		case "monitor":
			sawBurst = true
		}
	}
	if !sawPhase || !sawGET || !sawBurst {
		t.Fatalf("timeline missing actors: phase=%t get=%t burst=%t", sawPhase, sawGET, sawBurst)
	}
	var buf strings.Builder
	RenderTimeline(&buf, evs)
	if !strings.Contains(buf.String(), "phase") {
		t.Fatal("render missing phase lines")
	}
	RenderTimeline(&buf, nil)
}

func TestTrialMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	plan := adversary.DefaultPlan()
	tb, err := NewTestbed(TrialConfig{Seed: 8, Attack: &plan})
	if err != nil {
		t.Fatal(err)
	}
	res := tb.Run()
	PublishTrialMetrics(reg, res)
	snap := reg.Snapshot()
	val := func(name string) (float64, bool) {
		for _, f := range snap.Families {
			if f.Name == name && len(f.Series) > 0 {
				return f.Series[0].Value, true
			}
		}
		return 0, false
	}
	if v, ok := val("h2privacy_trials_total"); !ok || v != 1 {
		t.Fatalf("trials_total = %v %v", v, ok)
	}
	if v, ok := val("h2privacy_attack_trials_total"); !ok || v != 1 {
		t.Fatalf("attack_trials_total = %v %v", v, ok)
	}
	if v, ok := val("h2privacy_monitor_gets_total"); !ok || v != float64(res.GETs) {
		t.Fatalf("monitor_gets_total = %v, want %d", v, res.GETs)
	}
	if v, ok := val("h2privacy_adversary_drops_total"); !ok || v != float64(tb.Controller.Stats().DroppedPkts) {
		t.Fatalf("adversary_drops_total = %v, want %d", v, tb.Controller.Stats().DroppedPkts)
	}
	// The attack driver must have walked through all three phases, and the
	// phase-duration histogram must hold one observation per span.
	spans := tb.Driver.PhaseSpans(tb.Sched.Now())
	if len(spans) < 3 {
		t.Fatalf("driver logged %d phase spans, want ≥3", len(spans))
	}
	var phaseObs uint64
	for _, f := range snap.Families {
		if f.Name == "h2privacy_adversary_phase_seconds" {
			for _, s := range f.Series {
				phaseObs += s.Count
			}
		}
	}
	if phaseObs != uint64(len(spans)) {
		t.Fatalf("phase histogram holds %d observations, want %d", phaseObs, len(spans))
	}
	// Everything published is virtual-time derived: a same-seed rerun into a
	// fresh registry must produce an identical exposition.
	reg2 := obs.NewRegistry()
	tb2, err := NewTestbed(TrialConfig{Seed: 8, Attack: &plan})
	if err != nil {
		t.Fatal(err)
	}
	PublishTrialMetrics(reg2, tb2.Run())
	var a, b strings.Builder
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same-seed trials produced different expositions:\n%s\n---\n%s", a.String(), b.String())
	}
	if _, err := obs.LintExposition([]byte(a.String())); err != nil {
		t.Fatalf("trial exposition rejected by golden parser: %v", err)
	}
}

func TestTimelineFromTrace(t *testing.T) {
	plan := adversary.DefaultPlan()
	tb, err := NewTestbed(TrialConfig{
		Seed:   3,
		Attack: &plan,
		Bundle: instr.Bundle{Trace: trace.New(nil, trace.Config{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := tb.Run()
	evs := tb.Timeline(res)
	if len(evs) == 0 {
		t.Fatal("empty timeline")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("timeline not sorted at %d: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
	// Every phase transition the driver logged must appear, with its time.
	if len(tb.Driver.PhaseLog) == 0 {
		t.Fatal("driver logged no phases")
	}
	for _, pc := range tb.Driver.PhaseLog {
		want := "phase → " + pc.Phase.String()
		found := false
		for _, e := range evs {
			if e.Actor == "adversary" && e.What == want && e.At == pc.Time {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("timeline missing %q at %v", want, pc.Time)
		}
	}
	var sawTCP, sawGET bool
	for _, e := range evs {
		switch e.Actor {
		case "tcp":
			sawTCP = true
		case "browser":
			sawGET = true
		}
	}
	if !sawGET {
		t.Fatal("timeline has no browser requests")
	}
	if !sawTCP {
		t.Fatal("timeline has no trace-derived TCP events (RTO/recovery)")
	}
}
