package experiment_test

import (
	"io"
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/cliutil"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
)

// TestCrossTrafficWithinDefaultBudget runs the crosstraffic sweep the way
// h2bench does, with the default step budget armed and degraded
// supervision on: no trial may be quarantined. A loaded trial's generator
// stops once nothing else is pending, near 20 s and about 2.45M events at
// 300 Mbps, so these trials fit the default budget even unwidened; the
// widening itself is pinned by TestCrossTrafficFullWindowNeedsWidenedBudget.
func TestCrossTrafficWithinDefaultBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs two 300 Mbps background-load trials; a serial check, run without -race")
	}
	q := experiment.NewQuarantine()
	opts := experiment.Options{
		Trials: 2, BaseSeed: 1, Workers: 2,
		StepBudget:   cliutil.DefaultStepBudget,
		Quarantine:   q,
		SuperviseLog: io.Discard,
	}
	if _, err := experiment.CrossTraffic(opts); err != nil {
		t.Fatal(err)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("%d crosstraffic trial(s) quarantined under the default step budget", n)
	}
}

// TestCrossTrafficFullWindowNeedsWidenedBudget pins why crosstraffic
// widens the step budget: a 300 Mbps trial whose generator runs its whole
// 40 s window, kept busy here by a no-op scheduled at 40 s, as a fleet's
// decoys or a late timer would keep it, fires more events than the
// default budget and fewer than the widened one.
func TestCrossTrafficFullWindowNeedsWidenedBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs a 40 s window of 300 Mbps background load; a serial check, run without -race")
	}
	const bps = 300e6
	budget := experiment.CrossTrafficStepBudget(cliutil.DefaultStepBudget, bps)
	plan := adversary.DefaultPlan()
	tb, err := core.NewTestbed(core.TrialConfig{Seed: 1, Attack: &plan, CrossTrafficBps: bps})
	if err != nil {
		t.Fatal(err)
	}
	tb.Sched.At(40*time.Second, func() {})
	tb.Run()
	steps := tb.Sched.Steps()
	t.Logf("300 Mbps trial over the whole window: %d steps (default budget %d, widened %d)",
		steps, uint64(cliutil.DefaultStepBudget), budget)
	if steps <= cliutil.DefaultStepBudget {
		t.Errorf("%d steps fit the default budget %d: the widening is no longer needed or the trial stopped early",
			steps, uint64(cliutil.DefaultStepBudget))
	}
	if steps > budget {
		t.Errorf("%d steps exceed the widened budget %d", steps, budget)
	}
}
