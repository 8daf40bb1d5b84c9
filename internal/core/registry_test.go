package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/netsim"
	"h2privacy/internal/obs"
)

// publishedTrial runs cfg with a flowseq collector publishing into a fresh
// registry and the trial's outcome published into it.
func publishedTrial(t *testing.T, cfg TrialConfig) (*Testbed, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	col := flowseq.NewCollector()
	col.PublishTo(reg)
	cfg.Flows = flowseq.New(0, col)
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	PublishTrialMetrics(reg, tb.Run())
	return tb, reg
}

// familySeries maps each series of one family to its value, keyed by its
// label values joined with ","; nil when the family is not registered.
func familySeries(snap *obs.Snapshot, name string) map[string]int {
	for _, f := range snap.Families {
		if f.Name == name {
			m := make(map[string]int)
			for _, s := range f.Series {
				m[strings.Join(s.LabelValues, ",")] = int(s.Value)
			}
			return m
		}
	}
	return nil
}

// TestRegistryFamiliesMatchSources is the evidence that the registry needs
// no counters of its own inside the layers: each family below equals a
// count the trial already keeps. The adversary counters equal
// ControllerStats summed over every flow's controller; the phase
// transitions equal the PhaseLog entries of every armed driver, and the
// phase gauge the phase of the target's driver, or else of the driver that
// moved last; the fault transitions equal the injector's log by kind; and
// the flow_* counters equal the monitors' records and the finalized
// flowseq features of every flow. It runs the standalone mbox-restart
// trial, the budget-2 fleet trial, whose drivers are all decoys', and a
// fleet whose selector arms the throttle and jitter knobs on two decoys,
// and requires each count to be non-zero in at least one of them.
func TestRegistryFamiliesMatchSources(t *testing.T) {
	plan := adversary.DefaultPlan()
	trials := []struct {
		name string
		cfg  TrialConfig
	}{
		{"attack-mbox-restart", TrialConfig{Seed: 3, Attack: &plan, Scenario: "mbox-restart"}},
		{"fleet-budget-2", budget2Fleet()},
		// The knobs armed at selection: only the two decoys it arms throttle.
		{"fleet-knobs", TrialConfig{Seed: 2, RandomJitter: 5 * time.Millisecond, ThrottleBps: 20e6,
			Fleet: &FleetConfig{N: 10, Budget: 2, MinScore: -1}}},
	}
	seen := make(map[string]int)
	for _, trial := range trials {
		t.Run(trial.name, func(t *testing.T) {
			tb, reg := publishedTrial(t, trial.cfg)
			snap := reg.Snapshot()
			// check compares a whole family, series by series; a nil want
			// asserts that the family was never registered.
			check := func(family string, want map[string]int) {
				t.Helper()
				got := familySeries(snap, family)
				if fmt.Sprint(got) != fmt.Sprint(want) || (got == nil) != (want == nil) {
					t.Errorf("%s: registry %v, source %v", family, got, want)
				}
				for _, v := range want {
					seen[family] += v
				}
			}
			one := func(v int) map[string]int { return map[string]int{"": v} }

			flows := []*flow{&tb.flow}
			analyzers := []*flowseq.Analyzer{tb.cfg.Flows}
			if fl := tb.fleet; fl != nil {
				for i := range fl.decoys {
					flows = append(flows, &fl.decoys[i])
				}
				analyzers = fl.analyzers
			}

			var adv adversary.ControllerStats
			records := map[string]int{"c2s": 0, "s2c": 0}
			for _, f := range flows {
				st := f.Controller.Stats()
				adv.DroppedPkts += st.DroppedPkts
				adv.DelayedGETs += st.DelayedGETs
				adv.JitteredPkts += st.JitteredPkts
				adv.ThrottleEvents += st.ThrottleEvents
				records["c2s"] += f.Monitor.Stats(netsim.ClientToServer).Records
				records["s2c"] += f.Monitor.Stats(netsim.ServerToClient).Records
			}
			check("h2privacy_adversary_drops_total", one(adv.DroppedPkts))
			check("h2privacy_adversary_delayed_gets_total", one(adv.DelayedGETs))
			check("h2privacy_adversary_jittered_packets_total", one(adv.JitteredPkts))
			check("h2privacy_adversary_throttle_events_total", one(adv.ThrottleEvents))

			var phases map[string]int
			var last *adversary.Driver
			for _, d := range tb.drivers {
				if phases == nil {
					phases = make(map[string]int)
				}
				for _, pc := range d.PhaseLog {
					phases[pc.Phase.String()]++
				}
				if last == nil || d.PhaseLog[len(d.PhaseLog)-1].Time >= last.PhaseLog[len(last.PhaseLog)-1].Time {
					last = d
				}
			}
			if tb.Driver != nil {
				last = tb.Driver
			}
			check("h2privacy_adversary_phase_transitions_total", phases)
			if last == nil {
				check("h2privacy_adversary_phase", nil)
			} else {
				check("h2privacy_adversary_phase", one(int(last.Phase())))
			}

			var faults map[string]int
			if tb.Injector != nil {
				faults = make(map[string]int)
				for _, ft := range tb.Injector.Log() {
					faults[ft.Kind]++
				}
			}
			check("h2privacy_fault_transitions_total", faults)

			var gets, controls, opened, resets, spans int
			for _, an := range analyzers {
				ff := an.Finalize()
				gets += ff.GETs
				controls += ff.Control
				opened += len(ff.Streams)
				spans += len(ff.Spans)
				for _, s := range ff.Streams {
					if s.End == "reset" {
						resets++
					}
				}
			}
			check("flow_records_observed_total", records)
			check("flow_get_records_total", one(gets))
			check("flow_control_records_total", one(controls))
			check("flow_streams_opened_total", one(opened))
			check("flow_stream_resets_total", one(resets))
			check("flow_clean_slate_spans_total", one(spans))
		})
	}
	for what, n := range seen {
		if n == 0 {
			t.Errorf("%s: zero in every trial, so the comparison shows nothing", what)
		}
	}
}
