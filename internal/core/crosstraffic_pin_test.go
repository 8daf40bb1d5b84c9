package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/check"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/obs"
)

// resultDigests runs cfg with the checker and a flowseq analyzer armed and
// digests everything of the trial that reaches a report, a registry family
// or the feature export: the whole TrialResult (as JSON), the feature CSV
// and the registry the trial publishes, flowseq families included. The
// tracer stays off: a loaded trial's netsim trace carries the background
// packets themselves.
func resultDigests(t *testing.T, cfg TrialConfig) (result, features, registry string) {
	t.Helper()
	rec := check.NewRecorder()
	col := flowseq.NewCollector()
	reg := obs.NewRegistry()
	col.PublishTo(reg)
	cfg.Check = check.New(cfg.Seed, 0, rec)
	cfg.Flows = flowseq.New(0, col)
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckViolations != 0 {
		t.Errorf("seed %d: %d violations:\n%s", cfg.Seed, res.CheckViolations, rec.Report())
	}
	PublishTrialMetrics(reg, res)
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var f, r bytes.Buffer
	if err := col.WriteCSV(&f); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&r); err != nil {
		t.Fatal(err)
	}
	return digest(js), digest(f.Bytes()), digest(r.Bytes())
}

// TestCrossTrafficResultsPinned pins, across commits, the results of
// attacked trials under Poisson background load — seeds 1–3 at 100 and
// 300 Mbps on the point-to-point path, and one adaptive fleet trial whose
// target path carries load through the shared bottleneck. The
// crosstraffic report reads 100/100/0 at a few trials per point, so the
// report digests cannot see a changed trial; this pin can. Work that
// makes background load cheaper must leave every digest unchanged.
func TestCrossTrafficResultsPinned(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs seven background-load trials; a serial pin, run without -race")
	}
	plan := adversary.DefaultPlan()
	loaded := func(seed int64, mbps float64) TrialConfig {
		return TrialConfig{Seed: seed, Attack: &plan, CrossTrafficBps: mbps * 1e6}
	}
	adaptive := adversary.DefaultPlan()
	adaptive.Adaptive = true
	type pin struct{ result, features, registry string }
	for _, c := range []struct {
		name string
		cfg  TrialConfig
		want pin
	}{
		{"seed 1 at 100 Mbps", loaded(1, 100), pin{"76566a149dacd059", "8ef6af80ee9e0489", "d1de5add088b6d54"}},
		{"seed 2 at 100 Mbps", loaded(2, 100), pin{"2f5aa0a4518628bf", "ce9bbd793d55c15d", "c84c0d205aad710b"}},
		{"seed 3 at 100 Mbps", loaded(3, 100), pin{"ed5612a45dcd24b4", "fb7b233f698150c2", "5f25c748b921ea79"}},
		{"seed 1 at 300 Mbps", loaded(1, 300), pin{"0e8b1304d37b2f2d", "995e91816339bc89", "fbe4ffc1d7a423c0"}},
		{"seed 2 at 300 Mbps", loaded(2, 300), pin{"2f56351161e50a11", "4e6cb8656adac701", "dedd26f1daa4ff8f"}},
		{"seed 3 at 300 Mbps", loaded(3, 300), pin{"35c9532124ee3977", "c938b631be64633e", "f34de9dc48f0289e"}},
		{"fleet N=10 at 50 Mbps", TrialConfig{Seed: 7, Attack: &adaptive, CrossTrafficBps: 50e6,
			Fleet: &FleetConfig{N: 10, Budget: 1}}, pin{"192cd7071c2f15b1", "c88472a0961c6e07", "015f3ff98eff25d8"}},
	} {
		var got pin
		got.result, got.features, got.registry = resultDigests(t, c.cfg)
		if got != c.want {
			t.Errorf("%s: digests %+v, want %+v", c.name, got, c.want)
		}
	}
}
