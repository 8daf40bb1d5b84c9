package core

import (
	"runtime"
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/pool"
)

// fleetTrialAllocBound caps the heap allocations of one warm-arena
// N=100 fleet trial at 5% above the 28,613–28,620 measured (go1.24,
// linux/amd64) when worker-wide packet and segment lists, record-free
// decoy monitors and memoized decoy catalogs landed. Before them the
// trial made 43,612.
const fleetTrialAllocBound = 30_040

// fleetTrialMallocs runs an adaptive N=100, budget-1 fleet trial at seed
// 2 on an arena that a seed-1 trial has already warmed, and returns the
// heap allocations the second trial made.
func fleetTrialMallocs(t *testing.T) uint64 {
	t.Helper()
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	arena := pool.New()
	run := func(seed int64) {
		arena.Reset()
		if _, err := RunTrial(TrialConfig{Seed: seed, Attack: &plan, Pool: arena,
			Fleet: &FleetConfig{N: 100, Budget: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(2)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFleetTrialAllocs guards the fleet's per-flow allocation cut: a
// warm trial that re-allocates what its worker already holds (packets,
// segments, decoy catalogs) or keeps decoy records again exceeds the
// bound. It counts whole-trial allocations only; per-stage counts read
// from runtime/metrics move with unrelated stages. The race detector
// adds allocations of its own, so the test skips under it.
func TestFleetTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the trial's")
	}
	got := fleetTrialMallocs(t)
	t.Logf("warm N=100 fleet trial: %d allocations", got)
	if got > fleetTrialAllocBound {
		t.Fatalf("warm N=100 fleet trial made %d heap allocations, bound %d", got, fleetTrialAllocBound)
	}
}
