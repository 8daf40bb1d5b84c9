package adversary

import (
	"fmt"
	"time"

	"h2privacy/internal/capture"
	"h2privacy/internal/netsim"
	"h2privacy/internal/simtime"
	"h2privacy/internal/trace"
)

// AttackPlan parameterizes the §V staged attack. DefaultPlan returns the
// paper's published values.
type AttackPlan struct {
	// Phase1Jitter is the per-GET spacing applied from the start (50 ms).
	Phase1Jitter time.Duration
	// Phase1RandomJitter is the accompanying netem-style random jitter
	// applied to both directions (the delay discipline is imprecise even
	// for packets it does not target). Default 0.8 ms.
	Phase1RandomJitter time.Duration
	// TriggerGET is the GET ordinal (1-based) that starts phase 2 — the
	// 6th GET corresponds to the quiz HTML.
	TriggerGET int
	// ThrottleBps is the bandwidth limit applied at the trigger (800 Mbps).
	ThrottleBps float64
	// DropRate is the server→client payload drop probability (0.8).
	DropRate float64
	// DropRetransmitRate applies to TCP-retransmitted payload packets
	// (§IV-D: "the adversary drops the packets carrying retransmitted
	// objects"), starving loss recovery so the client times out and
	// resets. Default 0.97.
	DropRetransmitRate float64
	// DropDuration is how long the drops last. The paper dropped for 6 s,
	// "until the client sends stream reset"; our client's patience makes
	// 5 s the equivalent: the reset lands just after the window closes,
	// so the re-requested object of interest transmits on a clean path.
	DropDuration time.Duration
	// Phase3Jitter is the per-GET spacing after the drop window (80 ms),
	// sized to serialize the eight emblem images.
	Phase3Jitter time.Duration

	// Adaptive arms the closed-loop driver: a trigger watchdog that
	// aborts PhaseIdle when the trigger GET never appears, a clean-slate
	// watchdog that retries the drop window (bounded attempts, escalated
	// rate, backed-off duration) when no reset is observed, a middlebox
	// heartbeat that re-arms a wiped drop window, and early drop shutdown
	// the moment the reset is detected. The paper's published attack is
	// open-loop (Adaptive=false): it drops for a fixed window and hopes.
	Adaptive bool
	// TriggerDeadline is how long the adaptive driver waits in PhaseIdle
	// for the trigger GET before degrading to passive observation.
	// Default 20 s.
	TriggerDeadline time.Duration
	// RSTGrace is how long past a drop window's end the adaptive driver
	// waits for the client's reset before declaring the attempt failed.
	// Default 1 s.
	RSTGrace time.Duration
	// MaxDropAttempts bounds the drop windows the adaptive driver opens
	// (first try + retries). Default 3.
	MaxDropAttempts int
	// DropEscalation is added to DropRate/DropRetransmitRate per retry
	// (capped below 1 so retransmissions still trickle). It must bite
	// hard: any response byte that leaks through restarts the victim's
	// (now doubled) reset patience, so a mild escalation just extends the
	// starvation without ever forcing the second reset. Default 0.15.
	DropEscalation float64
	// RetryBackoff multiplies the drop window duration per retry. It must
	// outpace the victim's reset-timeout doubling (§IV-D): a browser that
	// already reset once waits 2× as long before resetting again, so a
	// retry window shorter than that just starves the connection without
	// forcing the reset. Default 2.6 (first retry 13s > the doubled 10s).
	RetryBackoff float64
}

// DefaultPlan returns the paper's §V attack parameters.
func DefaultPlan() AttackPlan {
	return AttackPlan{
		Phase1Jitter: 50 * time.Millisecond,
		TriggerGET:   6,
		ThrottleBps:  800e6,
		DropRate:     0.8,
		DropDuration: 5 * time.Second,
		Phase3Jitter: 80 * time.Millisecond,
	}
}

func (p AttackPlan) withDefaults() AttackPlan {
	if p.Phase1RandomJitter == 0 {
		p.Phase1RandomJitter = 800 * time.Microsecond
	}
	if p.DropRetransmitRate == 0 {
		p.DropRetransmitRate = 0.97
	}
	if p.TriggerDeadline == 0 {
		p.TriggerDeadline = 20 * time.Second
	}
	if p.RSTGrace == 0 {
		p.RSTGrace = time.Second
	}
	if p.MaxDropAttempts == 0 {
		p.MaxDropAttempts = 3
	}
	if p.DropEscalation == 0 {
		p.DropEscalation = 0.15
	}
	if p.RetryBackoff == 0 {
		p.RetryBackoff = 2.6
	}
	return p
}

// Validate rejects plans that would silently misbehave: negative jitters
// or durations, probabilities outside [0,1], a trigger ordinal below 1.
// It validates the plan as the driver will run it (defaults applied).
func (p AttackPlan) Validate() error {
	p = p.withDefaults()
	switch {
	case p.Phase1Jitter < 0:
		return fmt.Errorf("adversary: Phase1Jitter must be >= 0, got %v", p.Phase1Jitter)
	case p.Phase1RandomJitter < 0:
		return fmt.Errorf("adversary: Phase1RandomJitter must be >= 0, got %v", p.Phase1RandomJitter)
	case p.Phase3Jitter < 0:
		return fmt.Errorf("adversary: Phase3Jitter must be >= 0, got %v", p.Phase3Jitter)
	case p.TriggerGET < 1:
		return fmt.Errorf("adversary: TriggerGET must be >= 1, got %d", p.TriggerGET)
	case p.ThrottleBps < 0:
		return fmt.Errorf("adversary: ThrottleBps must be >= 0, got %v", p.ThrottleBps)
	case p.DropRate < 0 || p.DropRate > 1:
		return fmt.Errorf("adversary: DropRate must be in [0,1], got %v", p.DropRate)
	case p.DropRetransmitRate < 0 || p.DropRetransmitRate > 1:
		return fmt.Errorf("adversary: DropRetransmitRate must be in [0,1], got %v", p.DropRetransmitRate)
	case p.DropDuration < 0:
		return fmt.Errorf("adversary: DropDuration must be >= 0, got %v", p.DropDuration)
	case p.TriggerDeadline < 0 || p.RSTGrace < 0:
		return fmt.Errorf("adversary: watchdog deadlines must be >= 0")
	case p.MaxDropAttempts < 1:
		return fmt.Errorf("adversary: MaxDropAttempts must be >= 1, got %d", p.MaxDropAttempts)
	case p.DropEscalation < 0:
		return fmt.Errorf("adversary: DropEscalation must be >= 0, got %v", p.DropEscalation)
	case p.RetryBackoff < 1:
		return fmt.Errorf("adversary: RetryBackoff must be >= 1, got %v", p.RetryBackoff)
	}
	return nil
}

// Phase identifies the driver's progress.
type Phase int

// Attack phases.
const (
	PhaseIdle     Phase = iota + 1 // armed, jitter active, counting GETs
	PhaseDropping                  // trigger seen: throttled + dropping
	PhaseSpacing                   // post-reset: phase-3 jitter active
	PhaseDegraded                  // gave up: all knobs off, passive observation
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "jitter+count"
	case PhaseDropping:
		return "throttle+drop"
	case PhaseSpacing:
		return "space-images"
	case PhaseDegraded:
		return "passive"
	default:
		return "phase?"
	}
}

// Outcome classifies how an attack trial ended.
type Outcome int

// Trial outcomes.
const (
	OutcomePending         Outcome = iota // trial still running / never classified
	OutcomeCleanSlate                     // reset observed on the first drop window
	OutcomeRetryCleanSlate                // reset observed, but only after >= 1 retry
	OutcomeDegraded                       // gave up and observed passively
	OutcomeBroken                         // the connection itself died
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeCleanSlate:
		return "clean-slate"
	case OutcomeRetryCleanSlate:
		return "retry-clean-slate"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeBroken:
		return "broken"
	default:
		return "outcome?"
	}
}

// Reset-detection rule constants. The monitor cannot decrypt, so a
// "reset" is inferred from client→server control records (small
// post-setup application records: WINDOW_UPDATE and RST_STREAM look
// identical on the wire). The signature has two parts, both needed:
//
//   - Shape: the browser resets every open stream in one synchronous
//     flush, so the reset is a run of >= controlBurstRun control records
//     essentially simultaneous (successive gaps <= controlBurstGap).
//     Flow-control chatter arrives in pairs and small clusters.
//
//   - Context: the reset happens while the client is starved — no
//     substantial server→client payload has been forwarded past the tap
//     for starvationQuiet. This kills the big false positive: when a
//     stalled transfer recovers (drop window wiped by a middlebox
//     restart, or simply expired), the client emits WINDOW_UPDATE floods
//     with runs far longer than a real reset's, but always amid heavy
//     server data.
//
// Taint splits the shape rule in two. Records carried (even partly) by
// retransmitted segments are reassembly catch-up: after a blackout the
// client's retransmitted backlog parses as one same-instant batch that
// mimics a flush. Fresh records count toward the ordinary
// controlBurstRun. A run that is entirely retransmission-borne is only
// believed at taintedBurstRun — sized well above any observed catch-up
// batch (~13 records after a 300ms blackout) but below a full flush
// (one RST per open stream, 40+) whose packets were lost and resent,
// which is how a reset looks when the path itself is bursty.
//
// The burst must land between the drop window opening and
// resetWindowSlack past its end; later control traffic cannot credibly
// be attributed to the starvation. The adaptive driver's retries move
// that window forward, which is half their value: a flush delayed past
// the open-loop acceptance window by loss recovery still converts a
// retrying driver.
const (
	controlBurstGap  = 2 * time.Millisecond
	controlBurstRun  = 6
	taintedBurstRun  = 24
	starvationQuiet  = 300 * time.Millisecond
	resetWindowSlack = 2 * time.Second
	heartbeatPeriod  = 500 * time.Millisecond
	maxDropRate      = 0.98
	maxDropRtxRate   = 0.99
)

// Driver sequences the attack: phase 1 applies jitter and counts GETs at
// the monitor; on the trigger GET it throttles and starts targeted drops;
// when the drop window ends it switches to the phase-3 spacing that
// serializes the emblem images. With plan.Adaptive it closes the loop:
// watchdogs retry, re-arm or degrade instead of hoping.
type Driver struct {
	sched      *simtime.Scheduler
	controller *Controller
	monitor    *capture.Monitor
	plan       AttackPlan
	phase      Phase
	// PhaseLog records (time, phase) transitions for the experiment logs.
	PhaseLog []PhaseChange

	outcome    Outcome
	attempts   int           // drop windows opened so far
	rearms     int           // heartbeat re-arms after a knob wipe
	dropStart  time.Duration // start of the current drop window
	dropWindow time.Duration // duration of the current drop window
	curRate    float64       // current attempt's drop rates (for re-arm)
	curRtx     float64
	curFenced  bool // current attempt drops only above the seq fence
	rstSeen    bool
	connBroken bool
	lastCtrlAt time.Duration
	haveCtrl   bool
	ctrlRun    int // current run of near-simultaneous control records
	freshRun   int // untainted records within the current run
	gen        int // invalidates scheduled watchdog/heartbeat callbacks

	// onRelease, when set, fires once when the driver stops interfering
	// for good (degrade) — the fleet adversary returns the flow's budget
	// slot there. Phase 3 still holds the slot: request spacing is live
	// interference until the trial ends.
	onRelease func()
	released  bool
}

// PhaseChange is one driver transition.
type PhaseChange struct {
	Time  time.Duration
	Phase Phase
}

// NewDriver arms the attack: it installs phase-1 jitter immediately and
// subscribes to the monitor's GET, control-record and teardown feeds. The
// monitor must already be tapped into the same path. The plan is
// validated (defaults applied first); an invalid plan is an error, not
// silent misbehavior. The driver traces through the controller's tracer
// and logs every transition in PhaseLog.
func NewDriver(sched *simtime.Scheduler, controller *Controller, monitor *capture.Monitor, plan AttackPlan) (*Driver, error) {
	plan = plan.withDefaults()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	d := &Driver{sched: sched, controller: controller, monitor: monitor, plan: plan, outcome: OutcomePending}
	d.transition(PhaseIdle)
	controller.SetRequestSpacing(plan.Phase1Jitter)
	controller.SetRandomJitter(netsim.ClientToServer, plan.Phase1RandomJitter)
	controller.SetRandomJitter(netsim.ServerToClient, plan.Phase1RandomJitter)
	monitor.OnGET(func(count int, ev capture.RecordEvent) {
		if d.phase == PhaseIdle && count >= plan.TriggerGET {
			d.onTrigger()
		}
	})
	monitor.OnControl(d.onControl)
	monitor.OnTeardown(func(now time.Duration, dir netsim.Direction) { d.onTeardown() })
	if plan.Adaptive {
		// Trigger watchdog: without it, a trial whose trigger GET is lost
		// (blackout, burst loss) wedges in PhaseIdle forever.
		sched.After(plan.TriggerDeadline, func() {
			if d.phase == PhaseIdle {
				d.degrade("trigger-timeout")
			}
		})
	}
	return d, nil
}

// Phase reports the current phase.
func (d *Driver) Phase() Phase { return d.phase }

// SetOnRelease registers a hook fired exactly once when the driver goes
// terminally passive (degrade: trigger timeout, no reset after retries,
// or a broken connection). The fleet adversary releases the flow's
// interference-budget slot there.
func (d *Driver) SetOnRelease(fn func()) { d.onRelease = fn }

// Attempts reports how many drop windows the driver opened.
func (d *Driver) Attempts() int { return d.attempts }

// Rearms reports how many times the heartbeat re-armed a wiped window.
func (d *Driver) Rearms() int { return d.rearms }

// FinalOutcome classifies the trial at collection time. broken is the
// page-load verdict from the browser. A clean-slate already achieved
// stands even if the transport dies afterwards — the reset was observed
// and the re-request went out on a clean path; whether identification
// then succeeded is the classifier's column, not the driver's. Broken
// only claims trials where the attack never got its reset, and a trial
// that never saw one ends degraded — "still pending" is not a terminal
// state.
func (d *Driver) FinalOutcome(broken bool) Outcome {
	if d.outcome == OutcomeCleanSlate || d.outcome == OutcomeRetryCleanSlate {
		return d.outcome
	}
	if broken || d.connBroken {
		return OutcomeBroken
	}
	if d.outcome == OutcomePending {
		return OutcomeDegraded
	}
	return d.outcome
}

// PhaseSpan is one completed attack phase with its virtual-time duration.
type PhaseSpan struct {
	Phase    Phase
	Duration time.Duration
}

// PhaseSpans converts the transition log into per-phase durations; the
// final phase is closed at end (the trial's quiescence time). This feeds
// the per-trial phase-duration histograms. An empty PhaseLog yields an
// empty (non-nil) slice.
func (d *Driver) PhaseSpans(end time.Duration) []PhaseSpan {
	spans := make([]PhaseSpan, 0, len(d.PhaseLog))
	for i, pc := range d.PhaseLog {
		until := end
		if i+1 < len(d.PhaseLog) {
			until = d.PhaseLog[i+1].Time
		}
		if until < pc.Time {
			until = pc.Time
		}
		spans = append(spans, PhaseSpan{Phase: pc.Phase, Duration: until - pc.Time})
	}
	return spans
}

func (d *Driver) transition(p Phase) {
	d.phase = p
	d.PhaseLog = append(d.PhaseLog, PhaseChange{Time: d.sched.Now(), Phase: p})
	if tr := d.controller.tr; tr.Enabled() {
		tr.Emit(trace.LayerAdversary, "phase", trace.Str("to", p.String()))
	}
}

// onTrigger fires when the monitor has counted the trigger GET: throttle
// to the §IV-C sweet spot and black-hole server data until the client
// resets (§IV-D), then move to the image-spacing phase.
func (d *Driver) onTrigger() {
	d.transition(PhaseDropping)
	if d.plan.ThrottleBps > 0 {
		d.controller.Throttle(d.plan.ThrottleBps)
	}
	if d.plan.DropRate > 0 {
		d.openDropWindow()
		return
	}
	// No drops planned: hold the phase for the window, then space images.
	d.sched.After(d.plan.DropDuration, d.enterSpacing)
}

// openDropWindow starts drop attempt attempts+1. Retries escalate the
// rates additively (capped so retransmissions still trickle — a total
// black hole stalls TCP instead of provoking the HTTP/2-level reset) and
// stretch the window by RetryBackoff, tracking a client whose reset
// patience doubles after every reset. Retries also fence the drops at the
// server's current send-high (DropNewServerData): after the first reset
// attempt the victim's old streams are already cancelled, so their
// retransmissions are let through to keep the transport alive while
// everything new — the re-requested object — starves.
func (d *Driver) openDropWindow() {
	d.attempts++
	n := d.attempts - 1
	rate := d.plan.DropRate + float64(n)*d.plan.DropEscalation
	if rate > maxDropRate {
		rate = maxDropRate
	}
	rtx := d.plan.DropRetransmitRate + float64(n)*d.plan.DropEscalation
	if rtx > maxDropRtxRate {
		rtx = maxDropRtxRate
	}
	window := d.plan.DropDuration
	for i := 0; i < n; i++ {
		window = time.Duration(float64(window) * d.plan.RetryBackoff)
	}
	d.dropStart = d.sched.Now()
	d.dropWindow = window
	d.curRate, d.curRtx = rate, rtx
	d.curFenced = n > 0
	if d.curFenced {
		d.controller.DropNewServerData(rate, rtx, window)
	} else {
		d.controller.DropServerData(rate, rtx, window)
	}
	if tr := d.controller.tr; tr.Enabled() {
		tr.Emit(trace.LayerAdversary, "drop-attempt",
			trace.Num("attempt", int64(d.attempts)), trace.Dur("window", window))
	}
	if !d.plan.Adaptive {
		// Open-loop: the window runs its course, then phase 3 — hoping the
		// reset landed inside it.
		d.sched.After(window, d.enterSpacing)
		return
	}
	gen := d.gen
	d.heartbeat(gen)
	// Clean-slate watchdog: if the reset beats the deadline, onControl has
	// already advanced the phase and bumped gen; this callback then sees a
	// stale generation and does nothing.
	d.sched.After(window+d.plan.RSTGrace, func() {
		if d.gen != gen || d.phase != PhaseDropping {
			return
		}
		if d.attempts >= d.plan.MaxDropAttempts {
			d.degrade("no-reset")
			return
		}
		d.openDropWindow()
	})
}

// heartbeat polls the controller's knob state during a drop window: a
// middlebox restart wipes the drop window mid-attack, and without the
// re-arm the rest of the window silently does nothing.
func (d *Driver) heartbeat(gen int) {
	d.sched.After(heartbeatPeriod, func() {
		if d.gen != gen || d.phase != PhaseDropping {
			return
		}
		now := d.sched.Now()
		if now >= d.dropStart+d.dropWindow {
			return
		}
		if !d.controller.DropsActive() {
			d.rearms++
			if d.curFenced {
				d.controller.DropNewServerData(d.curRate, d.curRtx, d.dropStart+d.dropWindow-now)
			} else {
				d.controller.DropServerData(d.curRate, d.curRtx, d.dropStart+d.dropWindow-now)
			}
			if tr := d.controller.tr; tr.Enabled() {
				tr.Emit(trace.LayerAdversary, "drop-rearm",
					trace.Dur("remaining", d.dropStart+d.dropWindow-now))
			}
		}
		d.heartbeat(gen)
	})
}

// onControl is the monitor's control-record feed: classify the client's
// clean-slate reset (see the detection-rule comment above). Valid in
// PhaseDropping (reset inside the window) and PhaseSpacing (open-loop:
// the reset usually lands just after the window closes).
func (d *Driver) onControl(count int, ev capture.RecordEvent) {
	if d.haveCtrl && ev.Time-d.lastCtrlAt <= controlBurstGap {
		d.ctrlRun++
	} else {
		d.ctrlRun = 1
		d.freshRun = 0
	}
	if !ev.Tainted {
		d.freshRun++
	}
	d.lastCtrlAt = ev.Time
	d.haveCtrl = true
	if d.rstSeen || d.attempts == 0 {
		return
	}
	if d.phase != PhaseDropping && d.phase != PhaseSpacing {
		return
	}
	if ev.Time < d.dropStart || ev.Time > d.dropStart+d.dropWindow+resetWindowSlack {
		return
	}
	if d.freshRun < controlBurstRun && d.ctrlRun < taintedBurstRun {
		return
	}
	if lastData, seen := d.monitor.LastServerDataAt(); seen && ev.Time-lastData < starvationQuiet {
		return // client not starved: flow-control flood, not a reset
	}
	d.rstSeen = true
	if d.attempts > 1 {
		d.outcome = OutcomeRetryCleanSlate
	} else {
		d.outcome = OutcomeCleanSlate
	}
	if tr := d.controller.tr; tr.Enabled() {
		tr.Emit(trace.LayerAdversary, "reset-detected",
			trace.Num("attempt", int64(d.attempts)), trace.Dur("at", ev.Time))
	}
	if d.plan.Adaptive && d.phase == PhaseDropping {
		// Closed loop: stop starving the instant the reset is seen, so the
		// re-requested target transmits on a clean path immediately.
		d.enterSpacing()
	}
}

// enterSpacing moves to phase 3. Guarded: the adaptive early transition
// and the open-loop window timer can both want it.
func (d *Driver) enterSpacing() {
	if d.phase != PhaseDropping {
		return
	}
	d.gen++
	d.controller.StopDrops()
	d.transition(PhaseSpacing)
	d.controller.SetRequestSpacing(d.plan.Phase3Jitter)
}

// onTeardown fires when a TCP RST crosses the tap: the connection is
// dead. Nothing the middlebox does can help now, so degrade rather than
// keep dropping packets of a corpse.
func (d *Driver) onTeardown() {
	d.connBroken = true
	if d.phase != PhaseDegraded {
		d.degrade("connection-broken")
	}
}

// degrade turns every knob off and goes passive: the monitor keeps
// classifying, the trial keeps running, but the adversary stops
// interfering. This is the graceful-degradation terminal state — a trial
// never wedges with half an attack armed.
func (d *Driver) degrade(reason string) {
	d.gen++
	d.controller.StopDrops()
	d.controller.SetRequestSpacing(0)
	d.controller.SetRandomJitter(netsim.ClientToServer, 0)
	d.controller.SetRandomJitter(netsim.ServerToClient, 0)
	if tr := d.controller.tr; tr.Enabled() {
		tr.Emit(trace.LayerAdversary, "degrade", trace.Str("reason", reason))
	}
	d.transition(PhaseDegraded)
	if d.onRelease != nil && !d.released {
		d.released = true
		d.onRelease()
	}
}
