package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/check"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/obs"
	"h2privacy/internal/trace"
)

// armedTrial runs cfg with the trace, check, flowseq and obs instruments
// all armed and returns the result with every instrument's export.
func armedTrial(t *testing.T, cfg TrialConfig) (res *TrialResult, chrome, jsonl, features, registry []byte) {
	t.Helper()
	tr := trace.New(nil, trace.Config{})
	rec := check.NewRecorder()
	col := flowseq.NewCollector()
	reg := obs.NewRegistry()
	cfg.Trace = tr
	cfg.Check = check.New(cfg.Seed, 0, rec)
	cfg.Flows = flowseq.New(0, col)
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	PublishTrialMetrics(reg, res)
	if res.CheckViolations != 0 {
		t.Errorf("%d violations:\n%s", res.CheckViolations, rec.Report())
	}
	var c, j, f, r bytes.Buffer
	if err := tr.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteCSV(&f); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&r); err != nil {
		t.Fatal(err)
	}
	return res, c.Bytes(), j.Bytes(), f.Bytes(), r.Bytes()
}

// budget2Fleet is an adaptive N=10 fleet trial with a budget of two and
// no score floor, whose selector arms decoy drivers.
func budget2Fleet() TrialConfig {
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	return TrialConfig{Seed: 2, Attack: &plan, Fleet: &FleetConfig{N: 10, Budget: 2, MinScore: -1}}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestInstrumentOutputsPinned pins, across commits, what the instruments
// export for two trials: a standalone attacked trial with a fault
// scenario (trace, check, flowseq and obs all armed), and an N=100 fleet
// trial (every decoy's fate, the selection, both aggregate counters and
// all 100 flows' feature rows). Refactors of how the trial is assembled
// or how instruments reach the layers must leave every digest unchanged;
// only an intended output change may rewrite them.
func TestInstrumentOutputsPinned(t *testing.T) {
	plan := adversary.DefaultPlan()
	res, chrome, jsonl, features, registry := armedTrial(t, TrialConfig{Seed: 3, Attack: &plan, Scenario: "mbox-restart"})
	got := map[string]string{
		"standalone chrome":   digest(chrome),
		"standalone jsonl":    digest(jsonl),
		"standalone features": digest(features),
		"standalone registry": digest(registry),
		"standalone checks":   fmt.Sprint(res.CheckViolations),
	}

	adaptive := adversary.DefaultPlan()
	adaptive.Adaptive = true
	res, _, _, features, registry = armedTrial(t, TrialConfig{Seed: 4242, Attack: &adaptive,
		Fleet: &FleetConfig{N: 100, Budget: 1}})
	fo := res.Fleet
	var fleet bytes.Buffer
	fmt.Fprintf(&fleet, "selected=%v c2s=%+v s2c=%+v\n", fo.Selected, fo.AggC2S, fo.AggS2C)
	for _, d := range fo.Decoys {
		fmt.Fprintf(&fleet, "%+v\n", d)
	}
	got["fleet outcome"] = digest(fleet.Bytes())
	got["fleet features"] = digest(features)
	got["fleet registry"] = digest(registry)
	got["fleet checks"] = fmt.Sprint(res.CheckViolations)

	// Budget 2 with no score floor: at seed 2 the selector arms two decoys
	// and never the target, so the registry carries decoy drivers' phases.
	_, _, _, _, registry = armedTrial(t, budget2Fleet())
	if d := digest(registry); d != "cb36f56abba78c77" {
		t.Errorf("fleet budget-2 registry: digest %s, want cb36f56abba78c77", d)
	}

	want := map[string]string{
		"standalone chrome":   "1198a33c75d38e51",
		"standalone jsonl":    "06a6865939d8fa9c",
		"standalone features": "9cfe8bcb863f627f",
		"standalone registry": "a335938804709da6",
		"standalone checks":   "0",
		"fleet outcome":       "b7862d72ff2160cc",
		"fleet features":      "95fd95669eb781a3",
		"fleet registry":      "90d922c3453ffb57",
		"fleet checks":        "0",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s, want %s", k, got[k], w)
		}
	}
}
