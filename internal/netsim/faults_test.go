package netsim

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/simtime"
)

// faultTestPath builds a connected path with per-direction delivery
// counters and a fresh injector over it.
func faultTestPath(t *testing.T, cfg LinkConfig) (*simtime.Scheduler, *Path, *Injector, *int) {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(7)
	if cfg.BandwidthBps == 0 {
		cfg.BandwidthBps = 1e9
	}
	path, err := NewPath(sched, rng.Fork(), PathConfig{Link: cfg}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	path.Connect(func(*Packet) { delivered++ }, func(*Packet) { delivered++ })
	in := NewInjector(sched, rng.Fork(), path, instr.Bundle{})
	return sched, path, in, &delivered
}

func TestBlackoutDropsAsFault(t *testing.T) {
	sched, path, in, delivered := faultTestPath(t, LinkConfig{})
	in.ScheduleBlackout(10*time.Millisecond, 20*time.Millisecond)
	for _, at := range []time.Duration{5, 15, 25, 35} { // ms: up, down, down, up
		at := at * time.Millisecond
		sched.At(at, func() { path.Send(ClientToServer, 100, nil) })
	}
	sched.Run()
	if *delivered != 2 {
		t.Fatalf("delivered %d packets, want 2 (outside the blackout)", *delivered)
	}
	st := path.Link(ClientToServer).Stats()
	if st.DroppedFault != 2 {
		t.Fatalf("DroppedFault = %d, want 2", st.DroppedFault)
	}
	if st.DroppedLoss != 0 {
		t.Fatalf("blackout drops booked as random loss: %d", st.DroppedLoss)
	}
	log := in.Log()
	if len(log) != 2 || log[0].Kind != "blackout" || log[1].Kind != "blackout" {
		t.Fatalf("fault log = %+v", log)
	}
}

// TestBurstLossDeterministicPerSeed: the whole episode timeline is a pure
// function of the injector's seed — same seed, same transitions; the
// process always leaves the link clean at its end.
func TestBurstLossDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []FaultTransition {
		sched := simtime.NewScheduler()
		path, err := NewPath(sched, simtime.NewRand(1), PathConfig{Link: LinkConfig{BandwidthBps: 1e9}}, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		path.Connect(func(*Packet) {}, func(*Packet) {})
		in := NewInjector(sched, simtime.NewRand(seed), path, instr.Bundle{})
		in.ScheduleBurstLoss(0, 10*time.Second, 0.5, 200*time.Millisecond, 800*time.Millisecond)
		sched.Run()
		return in.Log()
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault timelines:\n%+v\n%+v", a, b)
	}
	if len(a) < 4 {
		t.Fatalf("expected several episodes over 10s, got %d transitions", len(a))
	}
	if last := a[len(a)-1]; last.Kind != "burst-loss" || last.Detail != "ended" {
		t.Fatalf("process did not end clean: %+v", last)
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical episode timelines")
	}
}

func TestRTTStepShiftsArrival(t *testing.T) {
	sched, path, in, _ := faultTestPath(t, LinkConfig{PropDelay: 10 * time.Millisecond})
	in.ScheduleRTTStep(50*time.Millisecond, 40*time.Millisecond)
	in.ScheduleRTTStep(150*time.Millisecond, 0)
	var arrivals []time.Duration
	path.Connect(func(*Packet) { arrivals = append(arrivals, sched.Now()) }, func(*Packet) {})
	for _, at := range []time.Duration{0, 100, 200} { // ms: before, during, after
		at := at * time.Millisecond
		sched.At(at, func() { path.Send(ClientToServer, 1, nil) })
	}
	sched.Run()
	const tx = 8 * time.Nanosecond // 1 byte at 1 Gbps
	want := []time.Duration{10*time.Millisecond + tx, 150*time.Millisecond + tx, 210*time.Millisecond + tx}
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
}

func TestBandwidthFlapAppliesAndRestores(t *testing.T) {
	sched, path, in, _ := faultTestPath(t, LinkConfig{BandwidthBps: 100e6})
	in.ScheduleBandwidthFlap(time.Second, 4*time.Second, time.Second, 10e6)
	link := path.Link(ServerToClient)
	var during, after float64
	sched.At(1500*time.Millisecond, func() { during = link.Bandwidth() })
	sched.At(5*time.Second, func() { after = link.Bandwidth() })
	sched.Run()
	if during != 10e6 {
		t.Fatalf("bandwidth during low flap = %v, want 10e6", during)
	}
	if after != 100e6 {
		t.Fatalf("bandwidth after flap window = %v, want restored 100e6", after)
	}
}

type recordingWiper struct{ wipes []time.Duration }

func (w *recordingWiper) WipeKnobs() { w.wipes = append(w.wipes, -1) }

func TestMboxRestartWipesKnobs(t *testing.T) {
	sched, _, in, _ := faultTestPath(t, LinkConfig{})
	w := &recordingWiper{}
	in.SetWiper(w)
	in.ScheduleMboxRestart(3 * time.Second)
	sched.Run()
	if len(w.wipes) != 1 {
		t.Fatalf("wiper called %d times, want 1", len(w.wipes))
	}
	if len(in.Log()) != 1 || in.Log()[0].Kind != "mbox-restart" {
		t.Fatalf("fault log = %+v", in.Log())
	}

	// No wiper attached: still logged, no panic.
	sched2, _, in2, _ := faultTestPath(t, LinkConfig{})
	in2.ScheduleMboxRestart(time.Second)
	sched2.Run()
	if len(in2.Log()) != 1 {
		t.Fatalf("wiperless restart not logged: %+v", in2.Log())
	}
}

func TestScenarioCatalog(t *testing.T) {
	names := ScenarioNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ScenarioNames not sorted: %v", names)
	}
	want := []string{"blackout-2s", "bursty-loss", "bw-flap", "mbox-restart", "rtt-step", "storm"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("catalog = %v, want %v", names, want)
	}
	for i, sc := range Scenarios() {
		if sc.Name != names[i] {
			t.Fatalf("Scenarios()[%d] = %q, want %q", i, sc.Name, names[i])
		}
		if sc.Desc == "" || sc.arm == nil {
			t.Fatalf("scenario %q incomplete", sc.Name)
		}
	}
	if _, ok := LookupScenario("bursty-loss"); !ok {
		t.Fatal("bursty-loss not found")
	}
	if _, ok := LookupScenario("nope"); ok {
		t.Fatal("unknown scenario found")
	}
}

// TestScenariosArmWithoutFiring: arming any catalog scenario schedules its
// events but executes nothing at t=0 — the fault layer stays pure setup.
func TestScenariosArmWithoutFiring(t *testing.T) {
	for _, sc := range Scenarios() {
		_, _, in, _ := faultTestPath(t, LinkConfig{})
		sc.Arm(in)
		if len(in.Log()) != 0 {
			t.Fatalf("scenario %q fired transitions at arm time: %+v", sc.Name, in.Log())
		}
	}
}

func TestFaultArgumentPanics(t *testing.T) {
	_, _, in, _ := faultTestPath(t, LinkConfig{})
	cases := map[string]func(){
		"burst-loss until<=start": func() { in.ScheduleBurstLoss(time.Second, time.Second, 0.5, 1, 1) },
		"burst-loss pBad<=0":      func() { in.ScheduleBurstLoss(0, time.Second, 0, 1, 1) },
		"burst-loss mean<=0":      func() { in.ScheduleBurstLoss(0, time.Second, 0.5, 0, 1) },
		"bw-flap until<=start":    func() { in.ScheduleBandwidthFlap(time.Second, time.Second, 1, 1) },
		"bw-flap lowBps<=0":       func() { in.ScheduleBandwidthFlap(0, time.Second, 1, 0) },
		"blackout dur<=0":         func() { in.ScheduleBlackout(0, 0) },
		"injector nil path":       func() { NewInjector(simtime.NewScheduler(), simtime.NewRand(1), nil, instr.Bundle{}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", name)
				}
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "netsim: ") {
					t.Fatalf("%s: panic %v lacks netsim: prefix", name, r)
				}
			}()
			fn()
		}()
	}
}
