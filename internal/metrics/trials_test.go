package metrics_test

import (
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/core"
	"h2privacy/internal/metrics"
)

// TestAnalyzeDoMMatchesReferenceOnTrials compares AnalyzeDoM with the
// reference implementation on the transmission logs of real trials: seeds
// 1–20 of the no-attack baseline, the full attack, and the attack against
// the shuffled-request-order defense.
func TestAnalyzeDoMMatchesReferenceOnTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 60 trials")
	}
	plan := adversary.DefaultPlan()
	configs := map[string]func(seed int64) core.TrialConfig{
		"baseline": func(seed int64) core.TrialConfig { return core.TrialConfig{Seed: seed} },
		"attack":   func(seed int64) core.TrialConfig { return core.TrialConfig{Seed: seed, Attack: &plan} },
		"defense": func(seed int64) core.TrialConfig {
			return core.TrialConfig{Seed: seed, Attack: &plan, ShuffledEmblemOrder: true}
		},
	}
	for name, cfg := range configs {
		for seed := int64(1); seed <= 20; seed++ {
			tb, err := core.NewTestbed(cfg(seed))
			if err != nil {
				t.Fatal(err)
			}
			tb.Run()
			spans, sizes := tb.Server.TxLog(), tb.Site.Sizes()
			if d := metrics.DiffDoM(metrics.AnalyzeDoM(spans, sizes), metrics.RefAnalyzeDoM(spans, sizes)); d != "" {
				t.Fatalf("%s seed %d: %s", name, seed, d)
			}
		}
	}
}
