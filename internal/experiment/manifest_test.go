package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"h2privacy/internal/obs"
)

// runManifestSweep runs a small fixed sweep into a fresh registry and
// returns the stripped manifest bytes. Wall-clock fields are zeroed by
// StripWallClock; everything left must be a pure function of the seeds.
func runManifestSweep(t *testing.T) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	opts := Options{Trials: 2, BaseSeed: 7, Metrics: reg}
	man := NewManifest("test-sweep", opts)
	prog := NewProgress(nil) // count trials without rendering
	opts.Progress = prog
	for _, id := range []string{"fig3", "fig2"} {
		runner, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		prog.Start(id, PlannedTrials(id, opts))
		rep, err := runner(opts)
		if err != nil {
			t.Fatal(err)
		}
		trials, wall := prog.Done()
		man.Record(id, rep.Title, trials, len(rep.Rows), wall)
	}
	man.Finish(reg)
	man.StripWallClock()
	var buf bytes.Buffer
	if err := man.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestManifestDeterministic(t *testing.T) {
	a := runManifestSweep(t)
	b := runManifestSweep(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed manifests differ:\n%s\n---\n%s", a, b)
	}
	s := string(a)
	for _, want := range []string{
		`"tool": "test-sweep"`,
		`"base_seed": 7`,
		`"id": "fig3"`,
		`"trials": 2`,
		`"h2privacy_trials_total"`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("manifest missing %q:\n%s", want, s)
		}
	}
	// Stripped manifests carry no wall-clock residue.
	if strings.Contains(s, "started_at") || strings.Contains(s, `"wall_ms": 1`) {
		t.Fatalf("wall clock leaked into stripped manifest:\n%s", s)
	}
}

func TestManifestCountsTrials(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Trials: 2, Metrics: reg}
	prog := NewProgress(nil)
	opts.Progress = prog
	prog.Start("fig2", PlannedTrials("fig2", opts))
	if _, err := Fig2(opts); err != nil {
		t.Fatal(err)
	}
	trials, _ := prog.Done()
	if want := PlannedTrials("fig2", opts); trials != want {
		t.Fatalf("fig2 ticked %d trials, PlannedTrials says %d", trials, want)
	}
	// The sweep's registry saw the same number of trials.
	snap := reg.Snapshot()
	for _, f := range snap.Families {
		if f.Name == "h2privacy_trials_total" {
			if got := f.Series[0].Value; got != float64(trials) {
				t.Fatalf("registry counted %v trials, progress %d", got, trials)
			}
			return
		}
	}
	t.Fatal("h2privacy_trials_total missing from sweep registry")
}

func TestProgressRendering(t *testing.T) {
	var buf bytes.Buffer
	base := time.Unix(1000, 0)
	clock := base
	p := NewProgress(&buf)
	p.now = func() time.Time { return clock }
	p.Start("fig9", 100)
	for i := 0; i < 50; i++ {
		clock = clock.Add(50 * time.Millisecond)
		p.Tick()
	}
	trials, wall := p.Done()
	if trials != 50 {
		t.Fatalf("Done reported %d trials", trials)
	}
	if wall != 2500*time.Millisecond {
		t.Fatalf("Done reported wall %v", wall)
	}
	out := buf.String()
	if !strings.Contains(out, "fig9") || !strings.Contains(out, "trials/s") {
		t.Fatalf("progress output missing id/rate: %q", out)
	}
	if !strings.Contains(out, "ETA") {
		t.Fatalf("progress output missing ETA: %q", out)
	}
	if !strings.Contains(out, "fig9: 50 trials in 2.5s (20.0 trials/s)\n") {
		t.Fatalf("final line missing: %q", out)
	}
	// Throttled: far fewer renders than ticks.
	if n := strings.Count(out, "\r"); n >= 50 {
		t.Fatalf("%d renders for 50 ticks — throttle broken", n)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Start("x", 10)
	p.Tick()
	if trials, wall := p.Done(); trials != 0 || wall != 0 {
		t.Fatal("nil progress reported work")
	}
	// Nil-writer Progress counts without rendering.
	q := NewProgress(nil)
	q.Start("x", 10)
	q.Tick()
	q.Tick()
	if trials, _ := q.Done(); trials != 2 {
		t.Fatalf("silent progress counted %d", trials)
	}
}

func TestPlannedTrialsShapes(t *testing.T) {
	opts := Options{Trials: 100}
	cases := map[string]int{
		"fig1": 100, "fig2": 200, "table1": 400, "fig5": 500,
		"sensitivity": 360, "crosstraffic": 75, "h1base": 25,
	}
	for id, want := range cases {
		if got := PlannedTrials(id, opts); got != want {
			t.Errorf("PlannedTrials(%s) = %d, want %d", id, got, want)
		}
	}
	if PlannedTrials("nope", opts) != 0 {
		t.Error("unknown id must plan 0")
	}
	// Every registered experiment has a non-zero estimate.
	for _, id := range IDs() {
		if PlannedTrials(id, opts) == 0 {
			t.Errorf("experiment %s has no trial estimate", id)
		}
	}
}
