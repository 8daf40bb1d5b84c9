package experiment

import (
	"strings"
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/instr"
	"h2privacy/internal/tcpsim"
)

// TestAllExperimentsCheckClean regenerates every registered experiment at
// one trial per point with every invariant checker armed: the intact
// stack must produce zero violations anywhere in the evaluation's
// configuration space. (h1base assembles bespoke testbeds outside the
// sweep engine and simply runs unchecked.)
func TestAllExperimentsCheckClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment registry")
	}
	rec := check.NewRecorder()
	opts := Options{Trials: 1, NoProgress: true, Check: rec}
	for _, id := range IDs() {
		runner, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q vanished", id)
		}
		if _, err := runner(opts); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if rec.Total() != 0 {
		t.Fatalf("invariant violations across the registry:\n%s", rec.Report())
	}
	if rec.Trials() == 0 {
		t.Fatal("no trials were checked — the sweep engine did not arm checkers")
	}
	t.Logf("checked %d trials across %d experiments, zero violations", rec.Trials(), len(IDs()))
}

// TestSweepCheckViolationsCarrySeedAndRepro re-breaks the TCP ACK bound,
// runs a parallel checked sweep, and requires every violation to carry
// the exact per-trial seed — then replays the printed seed as a single
// trial and requires the same rule to fire (the repro command contract).
func TestSweepCheckViolationsCarrySeedAndRepro(t *testing.T) {
	tcpsim.SetLegacyStaleAck(true)
	defer tcpsim.SetLegacyStaleAck(false)

	const base, n = 50, 6
	rec := check.NewRecorder()
	rec.SetRepro(func(v check.Violation) string {
		return "h2attack -check -seed N" // shape only; cmds fill in real flags
	})
	opts := Options{Trials: n, BaseSeed: base, Workers: 2, Check: rec}
	plan := adversary.DefaultPlan()
	_, err := opts.Sweep(n, func(trial int) core.TrialConfig {
		return core.TrialConfig{Seed: seedFor(base, 0, n, trial), Attack: &plan}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total() == 0 {
		t.Fatal("legacy ACK bound produced no violations in the sweep")
	}
	if rec.Trials() != n {
		t.Fatalf("recorder saw %d trials, want %d", rec.Trials(), n)
	}

	// Every violation's seed must match the seed scheme for its index.
	for _, v := range rec.Violations() {
		want := seedFor(base, 0, n, v.TrialIndex)
		if v.TrialSeed != want {
			t.Fatalf("trial %d violation carries seed %d, scheme says %d",
				v.TrialIndex, v.TrialSeed, want)
		}
	}
	if rep := rec.Report(); !strings.Contains(rep, "h2attack -check -seed N") {
		t.Fatalf("report does not surface the repro command:\n%s", rep)
	}

	// Replay the first violation's seed as a standalone trial — the path
	// `h2attack -seed N -check` takes — and require the same rule.
	first, ok := rec.First()
	if !ok {
		t.Fatal("no first violation")
	}
	rec2 := check.NewRecorder()
	cfg := core.TrialConfig{Seed: first.TrialSeed, Attack: &plan, Bundle: instr.Bundle{Check: check.New(first.TrialSeed, 0, rec2)}}
	res, err := core.RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckViolations == 0 {
		t.Fatalf("seed %d did not reproduce standalone", first.TrialSeed)
	}
	found := false
	for _, v := range rec2.Violations() {
		if v.Layer == first.Layer && v.Rule == first.Rule {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("standalone replay of seed %d fired %v, sweep fired %s/%s",
			first.TrialSeed, rec2.Violations(), first.Layer, first.Rule)
	}
}
