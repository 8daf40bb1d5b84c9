package core

import (
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/endpoint"
	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/trace"
)

// eventCounts tallies a trace's events by layer, kind and the value of one
// attribute.
type eventCounts map[eventKey]int

type eventKey struct {
	layer      trace.Layer
	kind, attr string
}

// countEvents keys every event by the value of its first attribute named
// in keys ("conn", "dir", "ep"); events carrying none of them key by "".
func countEvents(evs []trace.Event, keys ...string) eventCounts {
	n := make(eventCounts)
	for _, ev := range evs {
		k := eventKey{layer: ev.Layer, kind: ev.Kind}
	attrs:
		for _, a := range ev.Attrs[:ev.NAttr] {
			for _, key := range keys {
				if a.Key == key {
					k.attr = a.Str
					break attrs
				}
			}
		}
		n[k]++
	}
	return n
}

func (n eventCounts) of(layer trace.Layer, kind, attr string) int {
	return n[eventKey{layer, kind, attr}]
}

// TestTraceEventsMatchLayerStats is the evidence that a traced trial needs
// no per-kind counters beside its event stream: each count a layer reports
// equals the number of trace events of that kind, split by the event's
// conn/dir/ep attribute, and equals the layer's own Stats field where the
// layer keeps one. It runs an attacked trial under the mbox-restart fault
// scenario and a single-knob trial with random jitter and drops, and
// requires each count to be non-zero in at least one of them.
func TestTraceEventsMatchLayerStats(t *testing.T) {
	plan := adversary.DefaultPlan()
	trials := []struct {
		name string
		cfg  TrialConfig
	}{
		{"attack-mbox-restart", TrialConfig{Seed: 3, Attack: &plan, Scenario: "mbox-restart"}},
		// A 16 KiB stream window makes the server stall on flow control.
		{"knobs-jitter-drop", TrialConfig{Seed: 5, RandomJitter: 20 * time.Millisecond, DropRate: 0.05,
			Browser: endpoint.BrowserConfig{H2: h2.Config{InitialWindowSize: 16 << 10}}}},
	}
	seen := make(map[string]int)
	for _, trial := range trials {
		t.Run(trial.name, func(t *testing.T) {
			tr := trace.New(nil, trace.Config{})
			cfg := trial.cfg
			cfg.Bundle = instr.Bundle{Trace: tr}
			tb, err := NewTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tb.Run()
			if tr.Dropped() != 0 {
				t.Fatalf("ring overwrote %d events; counts would be short", tr.Dropped())
			}
			ev := countEvents(tr.Events(), "conn", "dir", "ep")

			// check asserts that the event count and, when stat >= 0, the
			// layer's Stats field agree.
			check := func(what string, events, stat int) {
				t.Helper()
				seen[what] += events
				if stat >= 0 && events != stat {
					t.Errorf("%s: %d events, layer stats %d", what, events, stat)
				}
			}

			for _, c := range []struct {
				name string
				st   tcpsim.Stats
			}{{"client", tb.Pair.Client.Stats()}, {"server", tb.Pair.Server.Stats()}} {
				check(c.name+".rto", ev.of(trace.LayerTCP, "rto", c.name), c.st.RTOExpiries)
				check(c.name+".fast-retransmit", ev.of(trace.LayerTCP, "recovery-enter", c.name), c.st.FastRetransmits)
				check(c.name+".tlp", ev.of(trace.LayerTCP, "tlp", c.name), c.st.TLPProbes)
				check(c.name+".srtt", ev.of(trace.LayerTCP, "srtt", c.name), -1)
			}

			for _, dir := range []netsim.Direction{netsim.ClientToServer, netsim.ServerToClient} {
				st := tb.Path.Link(dir).Stats()
				d := dir.String()
				check(d+".enqueue", ev.of(trace.LayerNetsim, "enqueue", d), st.Sent)
				check(d+".dequeue", ev.of(trace.LayerNetsim, "dequeue", d), st.Delivered)
				check(d+".drop", ev.of(trace.LayerNetsim, "drop", d),
					st.DroppedLoss+st.DroppedPolicy+st.DroppedQueue+st.DroppedFault)
				check(d+".reorder", ev.of(trace.LayerNetsim, "reorder", d), -1)
			}

			for _, ep := range []string{"client", "server"} {
				check(ep+".fc-stall", ev.of(trace.LayerH2, "fc-stall", ep), -1)
			}

			check("gets", ev.of(trace.LayerMonitor, "get", ""), tb.Monitor.GETCount())

			adv := tb.Controller.Stats()
			check("dropped", ev.of(trace.LayerAdversary, "drop", ""), adv.DroppedPkts)
			check("delayed-gets", ev.of(trace.LayerAdversary, "delay-get", ""), adv.DelayedGETs)
			// Jitter emits no event; the controller's Stats are its only count.
			seen["jittered"] += adv.JitteredPkts
		})
	}
	for what, n := range seen {
		// The client sends only requests, so it never stalls on flow control.
		if n == 0 && what != "client.fc-stall" {
			t.Errorf("%s: zero in every trial, so the comparison shows nothing", what)
		}
	}
}
