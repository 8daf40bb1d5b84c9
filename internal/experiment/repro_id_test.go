package experiment

import (
	"io"
	"strings"
	"testing"

	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/tcpsim"
)

// TestLookupStampsExperimentOnViolations re-breaks the TCP ACK bound and
// runs a registered experiment through Lookup: every violation must carry
// the experiment's id, so a report-time repro formatter can name it.
func TestLookupStampsExperimentOnViolations(t *testing.T) {
	tcpsim.SetLegacyStaleAck(true)
	defer tcpsim.SetLegacyStaleAck(false)

	rec := check.NewRecorder()
	rec.SetRepro(func(v check.Violation) string { return "h2bench -check " + v.Experiment })
	runner, ok := Lookup("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	if _, err := runner(Options{Trials: 4, BaseSeed: 50, Workers: 2, Check: rec}); err != nil {
		t.Fatal(err)
	}
	vs := rec.Violations()
	if len(vs) == 0 {
		t.Fatal("legacy ACK bound produced no violations")
	}
	for _, v := range vs {
		if v.Experiment != "table2" {
			t.Fatalf("violation %v carries experiment %q, want table2", v, v.Experiment)
		}
	}
	if rep := rec.Report(); !strings.Contains(rep, "repro: h2bench -check table2\n") {
		t.Fatalf("report does not name the experiment:\n%s", rep)
	}
}

// TestLookupStampsExperimentOnQuarantine injects a panic into a
// registered experiment's first trial: the quarantined failure, and the
// repro command stamped from it, must name the experiment.
func TestLookupStampsExperimentOnQuarantine(t *testing.T) {
	q := NewQuarantine()
	q.SetRepro(func(f TrialFailure) string { return "h2bench " + f.Experiment })
	runner, _ := Lookup("fig3")
	_, err := runner(Options{
		Trials: 1, Workers: 1, Quarantine: q, SuperviseLog: io.Discard,
		ChaosTrial: func(flat int) core.ChaosMode {
			if flat == 0 {
				return core.ChaosPanic
			}
			return core.ChaosNone
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := q.Failures()
	if len(fs) == 0 {
		t.Fatal("injected panic was not quarantined")
	}
	for _, f := range fs {
		if f.Experiment != "fig3" || f.Repro != "h2bench fig3" {
			t.Fatalf("failure names experiment %q, repro %q; want fig3", f.Experiment, f.Repro)
		}
	}
}
