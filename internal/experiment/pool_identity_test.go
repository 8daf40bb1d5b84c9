package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/obs"
	"h2privacy/internal/website"
)

// pooledSweepFingerprint runs an attack sweep under the given pooling
// regime and serializes everything observable: per-trial outcomes plus the
// full deferred-published metrics registry in Prometheus text form. The
// arena changes where bytes live, never their contents, so every variant
// of this fingerprint must be byte-identical for the same seed.
func pooledSweepFingerprint(t *testing.T, workers int, noPool, poison bool) []byte {
	t.Helper()
	plan := adversary.DefaultPlan()
	opts := Options{
		Trials: 8, BaseSeed: 4242, Workers: workers,
		NoPool: noPool, PoolPoison: poison,
		Metrics: obs.NewRegistry(),
	}
	results, err := opts.Sweep(opts.Trials, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr), Attack: &plan}
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, res := range results {
		fmt.Fprintf(&buf, "trial %d: outcome=%v resets=%d gets=%d html=%v rank0=%v broken=%v\n",
			i, res.Outcome, res.Resets, res.GETs,
			res.ObjectSuccess(website.TargetID), res.SequenceRankCorrect(0), res.Broken)
	}
	if err := opts.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledSweepByteIdenticalAcrossWorkers pins the tentpole guarantee:
// with per-worker arenas armed (the default), a sweep's trial outcomes and
// registry snapshot are byte-identical between the sequential engine and a
// 4-worker pool — recycling is worker-local and trials stay independent.
func TestPooledSweepByteIdenticalAcrossWorkers(t *testing.T) {
	seq := pooledSweepFingerprint(t, 1, false, false)
	par := pooledSweepFingerprint(t, 4, false, false)
	if len(seq) == 0 {
		t.Fatal("empty fingerprint")
	}
	if !bytes.Equal(seq, par) {
		t.Fatalf("pooled sweep differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
}

// TestPoolingPreservesOutput proves pooling itself is invisible: the same
// sweep with arenas disabled (NoPool) produces the identical fingerprint.
func TestPoolingPreservesOutput(t *testing.T) {
	pooled := pooledSweepFingerprint(t, 4, false, false)
	plain := pooledSweepFingerprint(t, 4, true, false)
	if !bytes.Equal(pooled, plain) {
		t.Fatalf("pooled sweep differs from unpooled:\n--- pooled ---\n%s\n--- no-pool ---\n%s", pooled, plain)
	}
}

// TestPoisonedPoolPreservesOutput is the stale-reference hunt: with
// poisoning armed, every buffer returned to the arena is filled with 0xDB
// before it can be handed out again, so any consumer that kept a payload
// or scratch slice past its contract reads deterministic garbage and the
// fingerprint diverges. Identical output proves no such consumer exists.
func TestPoisonedPoolPreservesOutput(t *testing.T) {
	plain := pooledSweepFingerprint(t, 4, true, false)
	poisoned := pooledSweepFingerprint(t, 4, false, true)
	if !bytes.Equal(plain, poisoned) {
		t.Fatalf("poisoned pooled sweep diverged — a consumer is holding a recycled buffer:\n--- no-pool ---\n%s\n--- poisoned ---\n%s", plain, poisoned)
	}
	// Response bodies are slices of one shared read-only pattern; a
	// consumer writing into one (or the arena recycling one) would corrupt
	// every later trial's bodies.
	site := website.ISideWith()
	for i := range site.Objects {
		o := &site.Objects[i]
		body := site.Body(o)
		for j, b := range body {
			if want := byte(len(o.ID)) + byte(j*131); b != want {
				t.Fatalf("shared body of %s corrupted after poisoned sweep: byte %d = %#x, want %#x", o.ID, j, b, want)
			}
		}
	}
}

// pooledFleetFingerprint runs an 8-trial adaptive N=50, budget-1 fleet
// sweep under the given pooling regime and serializes each trial's
// outcome, fleet selection, every decoy's fate and the published
// registry. A fleet recycles packets and segments across flows and, on a
// worker, across trials, so a struct reused while something still holds
// it shows up here as a diverging decoy fate or counter.
func pooledFleetFingerprint(t *testing.T, workers int, noPool, poison bool) []byte {
	t.Helper()
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	opts := Options{
		Trials: 8, BaseSeed: 5151, Workers: workers,
		NoPool: noPool, PoolPoison: poison,
		Metrics: obs.NewRegistry(),
	}
	results, err := opts.Sweep(opts.Trials, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr), Attack: &plan,
			Fleet: &core.FleetConfig{N: 50, Budget: 1}}
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, res := range results {
		fo := res.Fleet
		fmt.Fprintf(&buf, "trial %d: outcome=%v resets=%d gets=%d html=%v broken=%v selected=%v target=%v peak=%d interventions=%d aggC2S=%+v aggS2C=%+v\n",
			i, res.Outcome, res.Resets, res.GETs, res.ObjectSuccess(website.TargetID), res.Broken,
			fo.Selected, fo.TargetSelected, fo.BudgetPeak, fo.Interventions, fo.AggC2S, fo.AggS2C)
		for _, d := range fo.Decoys {
			fmt.Fprintf(&buf, "  %s load=%v completed=%d broken=%v resets=%d targeted=%v\n",
				d.Flow, d.LoadTime, d.Completed, d.Broken, d.Resets, d.Targeted)
		}
	}
	if err := opts.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledFleetSweepByteIdentical is the fleet's pooling pin: pooled,
// unpooled and poisoned runs of the same fleet sweep, each at 1 and 4
// workers, produce one fingerprint.
func TestPooledFleetSweepByteIdentical(t *testing.T) {
	want := pooledFleetFingerprint(t, 1, true, false)
	if len(want) == 0 {
		t.Fatal("empty fingerprint")
	}
	for _, v := range []struct {
		name           string
		workers        int
		noPool, poison bool
	}{
		{"no-pool/4", 4, true, false},
		{"pooled/1", 1, false, false},
		{"pooled/4", 4, false, false},
		{"poisoned/1", 1, false, true},
		{"poisoned/4", 4, false, true},
	} {
		got := pooledFleetFingerprint(t, v.workers, v.noPool, v.poison)
		if !bytes.Equal(want, got) {
			d := diffAt(want, got)
			t.Errorf("%s fleet sweep differs from no-pool/1 near byte %d:\n--- no-pool/1 ---\n%s\n--- %s ---\n%s",
				v.name, d, excerpt(want, d), v.name, excerpt(got, d))
		}
	}
}

// TestPooledSweepCheckClean runs the invariant checker over poisoned
// pooled trials at 4 workers: every layer's always-on invariants (capture
// taint accounting, TCP sequence sanity, h2 stream-state rules, ...) must
// hold exactly as they do unpooled.
func TestPooledSweepCheckClean(t *testing.T) {
	plan := adversary.DefaultPlan()
	rec := check.NewRecorder()
	opts := Options{
		Trials: 8, BaseSeed: 4242, Workers: 4,
		PoolPoison: true, Check: rec,
	}
	_, err := opts.Sweep(opts.Trials, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr), Attack: &plan}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.Total(); n != 0 {
		t.Fatalf("pooled trials violated %d invariants:\n%s", n, rec.Report())
	}
}
