package experiment

import (
	"strings"
	"testing"
)

// TestFleetScaleTable pins the fleetscale experiment's shape at a small
// trial budget: one row per load level N, the flowseq-feature selector
// finding the planted target and the adaptive attack forcing a clean
// slate on every row, with zero broken decoys or spurious resets under
// the default FIFO bottleneck.
func TestFleetScaleTable(t *testing.T) {
	rep, err := FleetScale(Options{Trials: 4, BaseSeed: 4242, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(fleetLoads()) {
		t.Fatalf("got %d rows, want one per load level %v", len(rep.Rows), fleetLoads())
	}
	for i, row := range rep.Rows {
		if want := itoa(fleetLoads()[i]); row[0] != want {
			t.Errorf("row %d: N=%s, want %s", i, row[0], want)
		}
		if row[3] != "100%" {
			t.Errorf("N=%s: target selected %s of trials, want 100%%", row[0], row[3])
		}
		if row[4] != "100%" {
			t.Errorf("N=%s: clean slate %s of trials, want 100%%", row[0], row[4])
		}
		if resets, broken := row[8], row[9]; resets != "0" || broken != "0" {
			t.Errorf("N=%s: spurious resets %s, broken delta %s, want 0/0", row[0], resets, broken)
		}
	}
	var buf strings.Builder
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "fleetscale") {
		t.Error("report render lacks the experiment ID")
	}
}

// TestFleetScaleDeterministicAcrossWorkers reruns the table at 1 and 4
// workers and requires identical rendered reports — the fleet table is
// as worker-count-independent as every other experiment.
func TestFleetScaleDeterministicAcrossWorkers(t *testing.T) {
	a, err := FleetScale(Options{Trials: 2, BaseSeed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FleetScale(Options{Trials: 2, BaseSeed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ra, rb strings.Builder
	a.Render(&ra)
	b.Render(&rb)
	if ra.String() != rb.String() {
		t.Fatalf("fleetscale differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			ra.String(), rb.String())
	}
}
