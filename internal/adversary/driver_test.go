package adversary

import (
	"strings"
	"testing"
	"time"

	"h2privacy/internal/capture"
	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
)

// newDriverHarness builds a driver over a connected path + monitor with
// the given plan and returns everything a test needs to poke it.
func newDriverHarness(t *testing.T, plan AttackPlan) (*simtime.Scheduler, *netsim.Path, *Controller, *Driver) {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(3)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: netsim.LinkConfig{BandwidthBps: 1e9}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	path.Connect(func(*netsim.Packet) {}, func(*netsim.Packet) {})
	mon := capture.NewMonitor(instr.Bundle{})
	path.AddTap(mon)
	ctrl := NewController(sched, rng.Fork(), path, instr.Bundle{})
	d, err := NewDriver(sched, ctrl, mon, plan)
	if err != nil {
		t.Fatal(err)
	}
	return sched, path, ctrl, d
}

// fireTrigger feeds the monitor a SYN plus enough GETs to pass the
// trigger (plan.TriggerGET must be 2).
func fireTrigger(path *netsim.Path) {
	seq := uint64(1001)
	syn := &tcpsim.Segment{Flags: tcpsim.FlagSYN, Seq: 1000}
	path.Send(netsim.ClientToServer, syn.WireSize(), syn)
	for i := 0; i < 4; i++ { // 2 setup records + 2 GETs
		seg := getSegment(seq)
		path.Send(netsim.ClientToServer, seg.WireSize(), seg)
		seq += uint64(len(seg.Payload))
	}
}

// burst feeds n control records into the driver directly, gap apart,
// starting at `at`.
func burst(d *Driver, at time.Duration, n int, gap time.Duration, tainted bool) {
	for i := 0; i < n; i++ {
		d.onControl(i, capture.RecordEvent{Time: at + time.Duration(i)*gap, Tainted: tainted})
	}
}

func TestAttackPlanValidate(t *testing.T) {
	cases := map[string]func(*AttackPlan){
		"negative Phase1Jitter":       func(p *AttackPlan) { p.Phase1Jitter = -time.Millisecond },
		"negative Phase1RandomJitter": func(p *AttackPlan) { p.Phase1RandomJitter = -time.Nanosecond },
		"negative Phase3Jitter":       func(p *AttackPlan) { p.Phase3Jitter = -time.Second },
		"zero TriggerGET":             func(p *AttackPlan) { p.TriggerGET = -1 },
		"negative ThrottleBps":        func(p *AttackPlan) { p.ThrottleBps = -1 },
		"DropRate above 1":            func(p *AttackPlan) { p.DropRate = 1.2 },
		"negative DropRate":           func(p *AttackPlan) { p.DropRate = -0.1 },
		"DropRetransmitRate above 1":  func(p *AttackPlan) { p.DropRetransmitRate = 2 },
		"negative DropDuration":       func(p *AttackPlan) { p.DropDuration = -time.Second },
		"negative TriggerDeadline":    func(p *AttackPlan) { p.TriggerDeadline = -time.Second },
		"negative RSTGrace":           func(p *AttackPlan) { p.RSTGrace = -time.Second },
		"negative MaxDropAttempts":    func(p *AttackPlan) { p.MaxDropAttempts = -2 },
		"negative DropEscalation":     func(p *AttackPlan) { p.DropEscalation = -0.1 },
		"RetryBackoff below 1":        func(p *AttackPlan) { p.RetryBackoff = 0.5 },
	}
	for name, corrupt := range cases {
		p := DefaultPlan()
		corrupt(&p)
		err := p.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted the plan", name)
		}
		if !strings.HasPrefix(err.Error(), "adversary: ") {
			t.Fatalf("%s: error %q lacks adversary: prefix", name, err)
		}
	}
	if err := DefaultPlan().Validate(); err != nil {
		t.Fatalf("default plan invalid: %v", err)
	}
	// NewDriver surfaces the validation error instead of running broken.
	bad := DefaultPlan()
	bad.DropRate = 7
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(1)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: netsim.LinkConfig{BandwidthBps: 1e9}}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	path.Connect(func(*netsim.Packet) {}, func(*netsim.Packet) {})
	if _, err := NewDriver(sched, NewController(sched, rng.Fork(), path, instr.Bundle{}), capture.NewMonitor(instr.Bundle{}), bad); err == nil {
		t.Fatal("NewDriver accepted an invalid plan")
	}
}

// TestTriggerNeverObservedDegrades: the adaptive trigger watchdog — a
// trial whose trigger GET never crosses the tap goes passive at
// TriggerDeadline instead of wedging in PhaseIdle.
func TestTriggerNeverObservedDegrades(t *testing.T) {
	plan := DefaultPlan()
	plan.Adaptive = true
	plan.TriggerDeadline = 3 * time.Second
	sched, _, ctrl, d := newDriverHarness(t, plan)
	sched.RunUntil(2 * time.Second)
	if d.Phase() != PhaseIdle {
		t.Fatalf("phase before deadline = %v", d.Phase())
	}
	sched.RunUntil(4 * time.Second)
	if d.Phase() != PhaseDegraded {
		t.Fatalf("phase after deadline = %v, want degraded", d.Phase())
	}
	if d.Attempts() != 0 {
		t.Fatalf("attempts = %d without a trigger", d.Attempts())
	}
	if ctrl.DropsActive() {
		t.Fatal("degraded driver left a drop window open")
	}
	if got := d.FinalOutcome(false); got != OutcomeDegraded {
		t.Fatalf("FinalOutcome = %v, want degraded", got)
	}
	// The open-loop driver has no such watchdog: it waits forever.
	sched2, _, _, d2 := newDriverHarness(t, DefaultPlan())
	sched2.RunUntil(25 * time.Second)
	if d2.Phase() != PhaseIdle {
		t.Fatalf("open-loop phase = %v, want idle forever", d2.Phase())
	}
}

// TestAdaptiveWindowExpiresWithoutDrops: a drop window that runs its whole
// course without a single reset (here: without even a dropped packet —
// nothing flows) retries with escalation, and after MaxDropAttempts the
// driver degrades rather than retrying forever.
func TestAdaptiveWindowExpiresWithoutDrops(t *testing.T) {
	plan := DefaultPlan()
	plan.Adaptive = true
	plan.TriggerGET = 2
	plan.DropDuration = time.Second
	plan.MaxDropAttempts = 2
	plan.RetryBackoff = 2
	sched, path, ctrl, d := newDriverHarness(t, plan)
	fireTrigger(path)
	sched.RunUntil(200 * time.Millisecond)
	if d.Phase() != PhaseDropping || d.Attempts() != 1 {
		t.Fatalf("after trigger: phase %v, attempts %d", d.Phase(), d.Attempts())
	}
	// Window 1 (1s) + grace (1s) expire with no reset: attempt 2 opens,
	// escalated and fenced.
	sched.RunUntil(2500 * time.Millisecond)
	if d.Attempts() != 2 {
		t.Fatalf("attempts after window 1 = %d, want 2", d.Attempts())
	}
	if !d.curFenced {
		t.Fatal("retry window not seq-fenced")
	}
	if ctrl.dropRate <= plan.DropRate {
		t.Fatalf("retry did not escalate: rate %v", ctrl.dropRate)
	}
	// Window 2 (2s) + grace expire too: out of attempts, degrade.
	sched.RunUntil(6 * time.Second)
	if d.Phase() != PhaseDegraded {
		t.Fatalf("phase after final window = %v, want degraded", d.Phase())
	}
	if got := d.FinalOutcome(false); got != OutcomeDegraded {
		t.Fatalf("FinalOutcome = %v", got)
	}
}

// TestCleanSlateDetection: a ≥6-record fresh control burst during the
// first drop window, with the client starved, classifies as clean-slate;
// the adaptive driver stops the drops immediately and moves to spacing.
func TestCleanSlateDetection(t *testing.T) {
	plan := DefaultPlan()
	plan.Adaptive = true
	plan.TriggerGET = 2
	plan.DropDuration = 5 * time.Second
	sched, path, ctrl, d := newDriverHarness(t, plan)
	fireTrigger(path)
	sched.RunUntil(200 * time.Millisecond)
	if d.Phase() != PhaseDropping {
		t.Fatalf("phase = %v", d.Phase())
	}
	at := d.dropStart + 2*time.Second
	burst(d, at, 5, time.Millisecond, false)
	if d.outcome != OutcomePending {
		t.Fatalf("5-record burst already classified: %v", d.outcome)
	}
	burst(d, at+6*time.Millisecond, 1, 0, false) // 6th record completes the run
	if d.outcome != OutcomeCleanSlate {
		t.Fatalf("outcome = %v, want clean-slate", d.outcome)
	}
	if d.Phase() != PhaseSpacing {
		t.Fatalf("adaptive driver did not enter spacing: %v", d.Phase())
	}
	if ctrl.DropsActive() {
		t.Fatal("drops still active after detected reset")
	}
	if got := d.FinalOutcome(false); got != OutcomeCleanSlate {
		t.Fatalf("FinalOutcome = %v", got)
	}
	// A clean slate survives a later connection break (the reset was
	// observed; the re-request already went out on a clean path).
	if got := d.FinalOutcome(true); got != OutcomeCleanSlate {
		t.Fatalf("FinalOutcome(broken) = %v, want clean-slate", got)
	}
}

// TestRetryCleanSlate: a reset detected during the second window is the
// retry-clean-slate outcome.
func TestRetryCleanSlate(t *testing.T) {
	plan := DefaultPlan()
	plan.Adaptive = true
	plan.TriggerGET = 2
	plan.DropDuration = time.Second
	plan.RetryBackoff = 2
	sched, path, _, d := newDriverHarness(t, plan)
	fireTrigger(path)
	sched.RunUntil(2500 * time.Millisecond) // window 1 + grace gone
	if d.Attempts() != 2 || d.Phase() != PhaseDropping {
		t.Fatalf("attempts %d phase %v", d.Attempts(), d.Phase())
	}
	burst(d, d.dropStart+500*time.Millisecond, 6, time.Millisecond, false)
	if d.outcome != OutcomeRetryCleanSlate {
		t.Fatalf("outcome = %v, want retry-clean-slate", d.outcome)
	}
}

// TestTaintedBurstThreshold: a control run carried entirely by
// retransmitted bytes (reassembly catch-up after a blackout) needs the
// higher taintedBurstRun to be believed.
func TestTaintedBurstThreshold(t *testing.T) {
	plan := DefaultPlan()
	plan.Adaptive = true
	plan.TriggerGET = 2
	plan.DropDuration = 5 * time.Second
	sched, path, _, d := newDriverHarness(t, plan)
	fireTrigger(path)
	sched.RunUntil(200 * time.Millisecond)
	at := d.dropStart + time.Second
	burst(d, at, taintedBurstRun-1, 0, true)
	if d.outcome != OutcomePending {
		t.Fatalf("catch-up-sized tainted burst classified as reset: %v", d.outcome)
	}
	burst(d, at+time.Millisecond, 1, 0, true)
	if d.outcome != OutcomeCleanSlate {
		t.Fatalf("flush-sized tainted burst not classified: %v", d.outcome)
	}
}

// TestBurstOutsideWindowIgnored: the same flush-shaped burst before the
// drop window opens, or long after it closed, is not attributed to the
// starvation.
func TestBurstOutsideWindowIgnored(t *testing.T) {
	plan := DefaultPlan()
	plan.Adaptive = true
	plan.TriggerGET = 2
	plan.DropDuration = time.Second
	sched, path, _, d := newDriverHarness(t, plan)
	fireTrigger(path)
	sched.RunUntil(200 * time.Millisecond)
	burst(d, d.dropStart-50*time.Millisecond, 8, 0, false)
	if d.outcome != OutcomePending {
		t.Fatalf("pre-window burst accepted: %v", d.outcome)
	}
	burst(d, d.dropStart+d.dropWindow+resetWindowSlack+time.Second, 8, 0, false)
	if d.outcome != OutcomePending {
		t.Fatalf("stale burst accepted: %v", d.outcome)
	}
}

// TestPhaseSpans covers the empty-log edge and the usual closure at trial
// end.
func TestPhaseSpans(t *testing.T) {
	var d Driver // no transitions ever logged
	spans := d.PhaseSpans(5 * time.Second)
	if spans == nil || len(spans) != 0 {
		t.Fatalf("empty PhaseLog → spans %v, want empty non-nil", spans)
	}
	d.PhaseLog = []PhaseChange{
		{Time: 0, Phase: PhaseIdle},
		{Time: 2 * time.Second, Phase: PhaseDropping},
	}
	spans = d.PhaseSpans(3 * time.Second)
	if len(spans) != 2 || spans[0].Duration != 2*time.Second || spans[1].Duration != time.Second {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestFinalOutcomeClassification(t *testing.T) {
	cases := []struct {
		name       string
		outcome    Outcome
		connBroken bool
		broken     bool
		want       Outcome
	}{
		{"pending quiesce", OutcomePending, false, false, OutcomeDegraded},
		{"pending broken page", OutcomePending, false, true, OutcomeBroken},
		{"pending broken conn", OutcomePending, true, false, OutcomeBroken},
		{"degraded stays", OutcomeDegraded, false, false, OutcomeDegraded},
		{"degraded then broken", OutcomeDegraded, false, true, OutcomeBroken},
		{"clean beats broken", OutcomeCleanSlate, true, true, OutcomeCleanSlate},
		{"retry-clean beats broken", OutcomeRetryCleanSlate, true, true, OutcomeRetryCleanSlate},
	}
	for _, tc := range cases {
		d := Driver{outcome: tc.outcome, connBroken: tc.connBroken}
		if got := d.FinalOutcome(tc.broken); got != tc.want {
			t.Fatalf("%s: FinalOutcome = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDropSeqFence: DropNewServerData exempts everything at or below the
// fence (retransmissions of already-reset streams) while new bytes above
// it are dropped.
func TestDropSeqFence(t *testing.T) {
	sched, path, ctrl, got := testPath(t)
	// Observe the server's send-high: 1000 bytes ending at seq 2000.
	old := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 1000, Payload: make([]byte, 1000)}
	path.Send(netsim.ServerToClient, old.WireSize(), old)
	sched.Run()
	ctrl.DropNewServerData(1.0, 1.0, time.Second)
	rtx := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 1000, Payload: make([]byte, 1000), Retransmit: true}
	fresh := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 2000, Payload: make([]byte, 1000)}
	path.Send(netsim.ServerToClient, rtx.WireSize(), rtx)
	path.Send(netsim.ServerToClient, fresh.WireSize(), fresh)
	sched.Run()
	if len(*got) != 2 { // the original + the below-fence retransmission
		t.Fatalf("delivered %d packets, want 2 (fence must pass the rtx, drop the fresh)", len(*got))
	}
	for _, del := range (*got)[1:] {
		if seg := del.pkt.Payload.(*tcpsim.Segment); !seg.Retransmit {
			t.Fatal("above-fence fresh data was delivered")
		}
	}
	// StopDrops clears the fence too: everything flows again.
	ctrl.StopDrops()
	if ctrl.dropSeqFence != 0 || ctrl.DropsActive() {
		t.Fatalf("StopDrops left state: fence=%d active=%v", ctrl.dropSeqFence, ctrl.DropsActive())
	}
}

// TestHeartbeatRearmsAfterWipe: a middlebox restart mid-window wipes the
// drop state; the adaptive heartbeat notices within heartbeatPeriod and
// re-arms for the window's remainder.
func TestHeartbeatRearmsAfterWipe(t *testing.T) {
	plan := DefaultPlan()
	plan.Adaptive = true
	plan.TriggerGET = 2
	plan.DropDuration = 4 * time.Second
	sched, path, ctrl, d := newDriverHarness(t, plan)
	fireTrigger(path)
	sched.RunUntil(200 * time.Millisecond)
	if !ctrl.DropsActive() {
		t.Fatal("drop window not open after trigger")
	}
	wipeAt := sched.Now() + time.Second
	sched.At(wipeAt, func() { ctrl.WipeKnobs() })
	sched.RunUntil(wipeAt + 10*time.Millisecond)
	if ctrl.DropsActive() {
		t.Fatal("wipe did not close the window")
	}
	sched.RunUntil(wipeAt + 2*heartbeatPeriod)
	if !ctrl.DropsActive() {
		t.Fatal("heartbeat did not re-arm the wiped window")
	}
	if d.Rearms() != 1 {
		t.Fatalf("rearms = %d, want 1", d.Rearms())
	}
	// The open-loop driver never re-arms: same wipe, window stays closed.
	plan2 := DefaultPlan()
	plan2.TriggerGET = 2
	plan2.DropDuration = 4 * time.Second
	sched2, path2, ctrl2, d2 := newDriverHarness(t, plan2)
	fireTrigger(path2)
	sched2.RunUntil(200 * time.Millisecond)
	wipe2 := sched2.Now() + time.Second
	sched2.At(wipe2, func() { ctrl2.WipeKnobs() })
	sched2.RunUntil(wipe2 + 3*heartbeatPeriod)
	if ctrl2.DropsActive() || d2.Rearms() != 0 {
		t.Fatalf("open-loop re-armed: active=%v rearms=%d", ctrl2.DropsActive(), d2.Rearms())
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomePending:         "pending",
		OutcomeCleanSlate:      "clean-slate",
		OutcomeRetryCleanSlate: "retry-clean-slate",
		OutcomeDegraded:        "degraded",
		OutcomeBroken:          "broken",
		Outcome(99):            "outcome?",
	}
	for o, s := range want {
		if o.String() != s {
			t.Fatalf("Outcome(%d).String() = %q, want %q", o, o.String(), s)
		}
	}
	if PhaseDegraded.String() != "passive" {
		t.Fatalf("PhaseDegraded = %q", PhaseDegraded.String())
	}
}
