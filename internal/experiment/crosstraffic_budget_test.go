package experiment_test

import (
	"io"
	"testing"

	"h2privacy/internal/cliutil"
	"h2privacy/internal/experiment"
)

// TestCrossTrafficWithinDefaultBudget runs the crosstraffic sweep the way
// h2bench does, with the default step budget armed and degraded
// supervision on. At 300 Mbps the background load alone fires more events
// than the default budget, so without the experiment's own widening
// trials 4 and 5 are quarantined as timeouts.
func TestCrossTrafficWithinDefaultBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs two 300 Mbps background-load trials; a serial check, run without -race")
	}
	q := experiment.NewQuarantine()
	opts := experiment.Options{
		Trials: 2, BaseSeed: 1, Workers: 2, NoProgress: true,
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
