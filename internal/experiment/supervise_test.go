package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"h2privacy/internal/core"
	"h2privacy/internal/obs"
)

// superviseStepBudget comfortably covers a full attack trial (~12.3k
// scheduler events) while letting the chaos-hang spin loop trip fast.
const superviseStepBudget = 50_000

// resultDigest serializes the deterministic core of a result slice —
// nil/quarantined markers plus the fields the reports aggregate — so two
// sweeps can be compared byte-for-byte. fmt sorts map keys, so the map
// fields print deterministically.
func resultDigest(results []*core.TrialResult) []byte {
	var buf bytes.Buffer
	for i, r := range results {
		if r == nil {
			fmt.Fprintf(&buf, "%d: nil\n", i)
			continue
		}
		fmt.Fprintf(&buf, "%d: quarantined=%v broken=%v reason=%q true=%v inferred=%v gets=%d resets=%d dom=%v\n",
			i, r.Quarantined, r.Broken, r.BrokenReason, r.TrueSeq, r.InferredSeq, r.GETs, r.Resets, r.BestCompleteDoM)
	}
	return buf.Bytes()
}

// counterValue finds a single-series counter family in a snapshot;
// -1 means the family was never registered.
func counterValue(s *obs.Snapshot, name string) float64 {
	for _, f := range s.Families {
		if f.Name == name && len(f.Series) == 1 {
			return f.Series[0].Value
		}
	}
	return -1
}

func snapshotJSON(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// chaosSweep runs the acceptance scenario — 16 trials, an injected panic
// at flat index 3 and an injected hang at 11, one retry each — in degraded
// mode and returns every byte-identity-relevant artifact.
func chaosSweep(t *testing.T, workers int) (digest, quarJSON, manifestJSON []byte, q *Quarantine, reg *obs.Registry) {
	t.Helper()
	reg = obs.NewRegistry()
	q = NewQuarantine()
	q.SetRepro(func(f TrialFailure) string {
		return fmt.Sprintf("replay -seed %d -trial %d", f.Seed, f.Trial)
	})
	opts := Options{
		BaseSeed:     300,
		Workers:      workers,
		Metrics:      reg,
		StepBudget:   superviseStepBudget,
		MaxRetries:   1,
		Quarantine:   q,
		SuperviseLog: io.Discard,
		ChaosTrial: func(flat int) core.ChaosMode {
			switch flat {
			case 3:
				return core.ChaosPanic
			case 11:
				return core.ChaosHang
			}
			return core.ChaosNone
		},
	}
	results, err := opts.Sweep(16, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr)}
	})
	if err != nil {
		t.Fatalf("degraded sweep errored (workers=%d): %v", workers, err)
	}
	m := NewManifest("test", opts)
	m.Finish(reg)
	m.FinishQuarantine(q)
	m.StripWallClock()
	var mbuf, qbuf bytes.Buffer
	if err := m.WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := q.WriteJSON(&qbuf, "test"); err != nil {
		t.Fatal(err)
	}
	return resultDigest(results), qbuf.Bytes(), mbuf.Bytes(), q, reg
}

// TestChaosSweepCompletesDegraded pins the tentpole end to end: a sweep
// with one panicking and one hanging trial completes in degraded mode —
// 14 real results, 2 quarantined placeholders with classified failures,
// attempt counts and repro commands — instead of crashing or hanging.
func TestChaosSweepCompletesDegraded(t *testing.T) {
	digest, quarJSON, manifestJSON, q, reg := chaosSweep(t, 1)
	if n := bytes.Count(digest, []byte("quarantined=false")); n != 14 {
		t.Fatalf("clean results = %d, want 14:\n%s", n, digest)
	}
	fails := q.Failures()
	if len(fails) != 2 {
		t.Fatalf("quarantined = %d, want 2: %+v", len(fails), fails)
	}
	for i, want := range []struct {
		trial int
		seed  int64
		kind  FailureKind
	}{{3, 303, FailPanic}, {11, 311, FailTimeout}} {
		f := fails[i]
		if f.Trial != want.trial || f.Seed != want.seed || f.Kind != want.kind {
			t.Fatalf("failure[%d] = %+v, want trial %d seed %d kind %s", i, f, want.trial, want.seed, want.kind)
		}
		if f.Attempts != 2 {
			t.Fatalf("failure[%d].Attempts = %d, want 2 (1 + MaxRetries)", i, f.Attempts)
		}
		if f.Repro != fmt.Sprintf("replay -seed %d -trial %d", f.Seed, f.Trial) {
			t.Fatalf("failure[%d].Repro = %q", i, f.Repro)
		}
	}
	// The hang died deterministically at the step budget, not a wall clock.
	if !bytes.Contains(quarJSON, []byte("step budget exceeded")) {
		t.Fatalf("timeout failure lacks the budget error:\n%s", quarJSON)
	}
	if !bytes.Contains(quarJSON, []byte(`"version": 1`)) {
		t.Fatalf("quarantine file lacks its version tag:\n%s", quarJSON)
	}
	// Each bad trial failed twice (original + retry): the metric families
	// agree, and quarantined counts trials, not attempts.
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"sweep_trials_panicked":    2,
		"sweep_trials_timedout":    2,
		"sweep_trials_retried":     2,
		"sweep_trials_quarantined": 2,
	} {
		if got := counterValue(snap, name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	// The stripped manifest flags degradation and keeps the receipt, but
	// the host-dependent sweep_* families are gone.
	if !bytes.Contains(manifestJSON, []byte(`"degraded": true`)) {
		t.Fatalf("stripped manifest not marked degraded:\n%s", manifestJSON)
	}
	if !bytes.Contains(manifestJSON, []byte(`"quarantined": 2`)) {
		t.Fatalf("stripped manifest lost the quarantine receipt:\n%s", manifestJSON)
	}
	if bytes.Contains(manifestJSON, []byte("sweep_trials_")) {
		t.Fatalf("stripped manifest still carries sweep_trials_* families:\n%s", manifestJSON)
	}
}

// TestChaosSweepByteIdenticalAcrossWorkers pins the degraded-mode half of
// the determinism contract: for an identical failure set, the aggregated
// results, the quarantine artifact and the stripped manifest are
// byte-identical at any worker count.
func TestChaosSweepByteIdenticalAcrossWorkers(t *testing.T) {
	d1, q1, m1, _, _ := chaosSweep(t, 1)
	d4, q4, m4, _, _ := chaosSweep(t, 4)
	if !bytes.Equal(d1, d4) {
		t.Fatalf("degraded results differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", d1, d4)
	}
	if !bytes.Equal(q1, q4) {
		t.Fatalf("quarantine artifacts differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", q1, q4)
	}
	if !bytes.Equal(m1, m4) {
		t.Fatalf("stripped manifests differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", m1, m4)
	}
}

// cleanSweep runs 6 clean trials and returns the digest and snapshot.
func cleanSweep(t *testing.T, opts Options) ([]byte, []byte) {
	t.Helper()
	results, err := opts.Sweep(6, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return resultDigest(results), snapshotJSON(t, opts.Metrics)
}

// TestCleanSweepSupervisionInvisible pins the clean-sweep half of the
// determinism contract: arming every supervision knob — watchdogs,
// retries, quarantine, cancellation — changes nothing observable when no
// trial fails. Results and the full registry snapshot stay byte-identical
// to the bare engine's, and no sweep_trials_* family is ever registered.
func TestCleanSweepSupervisionInvisible(t *testing.T) {
	bare := Options{BaseSeed: 40, Workers: 1, Metrics: obs.NewRegistry()}
	bareDigest, bareSnap := cleanSweep(t, bare)

	q := NewQuarantine()
	armed := Options{
		BaseSeed:     40,
		Workers:      4,
		Metrics:      obs.NewRegistry(),
		Ctx:          context.Background(),
		StepBudget:   superviseStepBudget,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		Quarantine:   q,
		SuperviseLog: io.Discard,
	}
	armedDigest, armedSnap := cleanSweep(t, armed)

	if !bytes.Equal(bareDigest, armedDigest) {
		t.Fatalf("supervision changed clean results:\n--- bare ---\n%s\n--- supervised ---\n%s", bareDigest, armedDigest)
	}
	if !bytes.Equal(bareSnap, armedSnap) {
		t.Fatalf("supervision changed the clean registry snapshot:\n--- bare ---\n%s\n--- supervised ---\n%s", bareSnap, armedSnap)
	}
	if bytes.Contains(armedSnap, []byte("sweep_trials_")) {
		t.Fatalf("clean sweep registered supervision families:\n%s", armedSnap)
	}
	if q.Len() != 0 {
		t.Fatalf("clean sweep quarantined %d trials", q.Len())
	}
}

// TestRetryRecoversTransientFault drives the retry path to success: a
// stateful chaos hook panics trial 5's first attempt only, so the retry —
// on fresh per-trial state — must produce the exact result a never-failed
// run produces, with nothing quarantined.
func TestRetryRecoversTransientFault(t *testing.T) {
	bare := Options{BaseSeed: 70, Workers: 1, Metrics: obs.NewRegistry()}
	bareDigest, _ := cleanSweep(t, bare)

	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		sabotaged := false
		q := NewQuarantine()
		reg := obs.NewRegistry()
		opts := Options{
			BaseSeed:     70,
			Workers:      workers,
			Metrics:      reg,
			StepBudget:   superviseStepBudget,
			MaxRetries:   1,
			Quarantine:   q,
			SuperviseLog: io.Discard,
			ChaosTrial: func(flat int) core.ChaosMode {
				mu.Lock()
				defer mu.Unlock()
				if flat == 5 && !sabotaged {
					sabotaged = true
					return core.ChaosPanic
				}
				return core.ChaosNone
			},
		}
		digest, _ := cleanSweep(t, opts)
		if !bytes.Equal(digest, bareDigest) {
			t.Fatalf("workers=%d: retried sweep differs from clean run:\n--- clean ---\n%s\n--- retried ---\n%s", workers, bareDigest, digest)
		}
		if q.Len() != 0 {
			t.Fatalf("workers=%d: transient fault was quarantined: %+v", workers, q.Failures())
		}
		snap := reg.Snapshot()
		if got := counterValue(snap, "sweep_trials_panicked"); got != 1 {
			t.Fatalf("workers=%d: sweep_trials_panicked = %v, want 1", workers, got)
		}
		if got := counterValue(snap, "sweep_trials_retried"); got != 1 {
			t.Fatalf("workers=%d: sweep_trials_retried = %v, want 1", workers, got)
		}
		if got := counterValue(snap, "sweep_trials_quarantined"); got != -1 {
			t.Fatalf("workers=%d: quarantined family registered (= %v) with nothing quarantined", workers, got)
		}
	}
}

// TestCancelledSweepDrainsPartial pins cooperative cancellation: a context
// cancelled mid-sweep stops the engine without retry or quarantine fallout,
// and the partial results are returned alongside the context error so the
// caller can export what completed.
func TestCancelledSweepDrainsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := NewQuarantine()
	opts := Options{
		BaseSeed:     90,
		Workers:      1,
		Metrics:      obs.NewRegistry(),
		Ctx:          ctx,
		StepBudget:   superviseStepBudget,
		MaxRetries:   3,
		Quarantine:   q,
		SuperviseLog: io.Discard,
		// The hook doubles as a deterministic trip wire: trial 4's attempt
		// cancels the sweep before it runs.
		ChaosTrial: func(flat int) core.ChaosMode {
			if flat == 4 {
				cancel()
			}
			return core.ChaosNone
		},
	}
	results, err := opts.Sweep(8, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr)}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 8 {
		t.Fatalf("len(results) = %d, want the full index-aligned slice", len(results))
	}
	for i := 0; i < 4; i++ {
		if results[i] == nil {
			t.Fatalf("completed trial %d missing from the partial results", i)
		}
	}
	for i := 4; i < 8; i++ {
		if results[i] != nil {
			t.Fatalf("trial %d ran after cancellation", i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("cancellation was quarantined: %+v", q.Failures())
	}
	if got := counterValue(opts.Metrics.Snapshot(), "sweep_trials_retried"); got != -1 {
		t.Fatalf("cancelled trial was retried (%v retries)", got)
	}
}

// TestFailFastLowestIndexPanic is the satellite-3 determinism test (run
// under -race in CI): with many concurrently panicking trials and no
// quarantine armed, the sweep fails fast with the LOWEST-index trial's
// structured failure — never whichever worker happened to lose the race.
func TestFailFastLowestIndexPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for round := 0; round < 10; round++ {
			opts := Options{
				BaseSeed:     500,
				Workers:      workers,
				StepBudget:   superviseStepBudget,
				SuperviseLog: io.Discard,
				ChaosTrial: func(flat int) core.ChaosMode {
					if flat >= 3 {
						return core.ChaosPanic
					}
					return core.ChaosNone
				},
			}
			_, err := opts.Sweep(32, func(tr int) core.TrialConfig {
				return core.TrialConfig{Seed: opts.BaseSeed + int64(tr)}
			})
			var tf *TrialFailure
			if !errors.As(err, &tf) {
				t.Fatalf("workers=%d round %d: err = %v, want *TrialFailure", workers, round, err)
			}
			if tf.Trial != 3 || tf.Seed != 503 || tf.Kind != FailPanic || tf.Attempts != 1 {
				t.Fatalf("workers=%d round %d: failure = %+v, want trial 3 seed 503 panic", workers, round, tf)
			}
		}
	}
}

// TestQuarantineArtifactShape pins the collector's contract directly:
// failures report sorted by flat trial index regardless of insertion
// order, the default repro stamp names trial and seed, and the JSON
// artifact carries its version tag.
func TestQuarantineArtifactShape(t *testing.T) {
	q := NewQuarantine()
	q.add(TrialFailure{Trial: 9, Seed: 109, Kind: FailTimeout, Attempts: 1, Err: "budget"})
	q.add(TrialFailure{Trial: 2, Seed: 102, Kind: FailPanic, Attempts: 2, Err: "boom"})
	fails := q.Failures()
	if len(fails) != 2 || fails[0].Trial != 2 || fails[1].Trial != 9 {
		t.Fatalf("failures not sorted by trial index: %+v", fails)
	}
	if fails[0].Repro != "re-run trial 2 standalone with seed 102" {
		t.Fatalf("default repro stamp = %q", fails[0].Repro)
	}
	rec := q.Receipt()
	if rec.Quarantined != 2 || len(rec.Failures) != 2 {
		t.Fatalf("receipt = %+v", rec)
	}
	var buf bytes.Buffer
	if err := q.WriteJSON(&buf, "unit"); err != nil {
		t.Fatal(err)
	}
	var file struct {
		Version  int            `json:"version"`
		Tool     string         `json:"tool"`
		Failures []TrialFailure `json:"failures"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("quarantine artifact is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if file.Version != 1 || file.Tool != "unit" || len(file.Failures) != 2 {
		t.Fatalf("artifact = %+v", file)
	}
}
