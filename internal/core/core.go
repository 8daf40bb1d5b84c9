// Package core is the library facade: it assembles the full testbed —
// network path, TCP pair, TLS, HTTP/2, website, server, browser, monitor,
// adversary — and runs seeded trials, returning everything the paper's
// tables and figures are computed from. Downstream users who want the
// attack as a black box use RunTrial; the experiment harness and examples
// build on it.
package core

import (
	"context"
	"fmt"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/capture"
	"h2privacy/internal/check"
	"h2privacy/internal/endpoint"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/instr"
	"h2privacy/internal/metrics"
	"h2privacy/internal/netsim"
	"h2privacy/internal/obs"
	"h2privacy/internal/perf"
	"h2privacy/internal/pool"
	"h2privacy/internal/predict"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/trace"
	"h2privacy/internal/website"
)

// DefaultLink returns the paper's testbed path: a 1 Gbps gateway link
// with campus-scale latency and mild natural reordering.
func DefaultLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		BandwidthBps:  1e9,
		PropDelay:     8 * time.Millisecond,
		NaturalJitter: 300 * time.Microsecond,
		ReorderProb:   0.005,
	}
}

// TrialConfig describes one page-load trial.
type TrialConfig struct {
	// Seed drives every random quantity in the trial.
	Seed int64
	// Link configures the path (zero value → DefaultLink).
	Link netsim.LinkConfig
	// TCP tunes the transport endpoints.
	TCP tcpsim.Config
	// Pool, when non-nil, arms trial-scoped allocation recycling: segment
	// structs, payload buffers and netsim packets are rented from the arena
	// and recycled as their last scheduled delivery fires, instead of being
	// left to the garbage collector. Workers own one arena each and Reset it
	// between trials, so buffers are reused across a whole sweep. Pooling
	// changes where bytes live, never their contents — results, traces and
	// exports stay byte-identical with it on or off, at any worker count.
	Pool *pool.Arena
	// Server and Browser tune the applications.
	Server  endpoint.ServerConfig
	Browser endpoint.BrowserConfig
	// Perm is the user's party-preference permutation; nil draws one
	// from the seed (the paper's volunteer).
	Perm []int
	// ShuffledEmblemOrder enables the §VII defense: the client requests
	// the emblems in a random order unrelated to the displayed ranking.
	ShuffledEmblemOrder bool
	// ServerPush enables the §VII server-push defense: the server pushes
	// all emblems (catalog order) when the results script is requested,
	// and the browser advertises ENABLE_PUSH and adopts the pushes.
	ServerPush bool
	// Attack, when non-nil, arms the full §V staged adversary.
	Attack *adversary.AttackPlan
	// Scenario names a netsim fault scenario to inject (see
	// netsim.ScenarioNames); empty disables fault injection entirely — no
	// events scheduled, no extra RNG draws, existing seeds unchanged.
	Scenario string
	// Knobs for the single-parameter studies (§IV): applied from t=0
	// when Attack is nil, or from selection on the flows a fleet arms.
	RequestSpacing time.Duration // per-GET jitter d (Table I)
	RandomJitter   time.Duration // netem-style jitter, both directions
	ThrottleBps    float64       // bandwidth limit (Fig. 5)
	DropRate       float64       // server→client drop probability
	DropFrom       time.Duration // when drops start (with DropRate)
	DropDuration   time.Duration // how long drops last
	// CrossTrafficBps injects Poisson background load (each direction)
	// through the same gateway — the uncontrolled traffic a real campus
	// link carries. Zero disables.
	CrossTrafficBps float64
	// Fleet, when non-nil, switches the trial to the shared-bottleneck
	// fleet topology: N client–server pairs multiplexed over one
	// aggregation link, with the adversary constrained to a K-flow
	// interference budget and target selection from capture-visible
	// features. See FleetConfig. Flow 0 is the target pair this config
	// otherwise describes; at N=1 with a mirrored bottleneck the trial is
	// byte-identical to Fleet=nil.
	Fleet *FleetConfig
	// Predict tunes the prediction module.
	Predict predict.Config
	// Duration bounds the simulated time. Default 120 s.
	Duration time.Duration
	// Bundle holds the trial's instruments: a tracer, an invariant checker
	// and a flowseq analyzer (see instr.Bundle). Every layer of the target
	// flow takes the bundle once, at construction. Checker violations land
	// on TrialResult.CheckViolations and finalized features on
	// TrialResult.Features. No layer writes to a metrics registry: the
	// caller publishes the returned result (PublishTrialMetrics), once.
	// Perf attributes host-side cost (wall time and allocations) to the
	// build, run, capture and check stages; it is worker-scoped, so sweeps
	// hand each worker goroutine its own. Each nil member is a free no-op,
	// and arming any of them leaves results and traces byte-identical.
	instr.Bundle
	Perf *perf.Worker
	// Ctx, when non-nil, arms cooperative cancellation: the scheduler polls
	// the context every few thousand fired events and stops stepping once
	// it is done, and RunTrial returns ctx.Err() instead of a result. The
	// sweep engine threads Options.Ctx here so a SIGINT drains mid-trial.
	// An unfired context is observationally invisible — no events, no RNG
	// draws, byte-identical output.
	Ctx context.Context
	// StepBudget, when >0, arms the deterministic per-trial watchdog: the
	// scheduler panics with *simtime.BudgetError once the trial has fired
	// this many events, so a wedged simulation (a self-rescheduling timer
	// loop that never quiesces) dies loudly instead of hanging a sweep
	// worker. The budget counts virtual events, so it trips at the same
	// point for the same seed on any host. The supervised sweep engine
	// recovers the panic into a structured timeout failure; standalone
	// RunTrial callers see the panic. Normal trials fire well under a
	// million events, so generous budgets are invisible.
	StepBudget uint64
	// Chaos deterministically sabotages the trial so the sweep supervisor
	// itself can be tested: ChaosPanic panics as the run starts, ChaosHang
	// schedules a self-rescheduling timer loop that never quiesces (caught
	// by StepBudget). ChaosNone (the default) is inert.
	Chaos ChaosMode
}

// Testbed is an assembled, un-run trial: the target flow — its Path, Pair,
// Site, Plan, Server, Browser, Monitor and Controller — plus, in the fleet
// topology, the shared bottleneck and the decoy flows around it. Most
// callers use RunTrial; the defense experiments assemble a Testbed to poke
// at components first.
type Testbed struct {
	Sched *simtime.Scheduler
	flow
	Driver   *adversary.Driver
	Injector *netsim.Injector
	cfg      TrialConfig
	fleet    *fleet // nil for the point-to-point topology
	// drivers holds every attack driver the trial armed, in arming order:
	// the target's and, in a fleet, each selected decoy's.
	drivers []*adversary.Driver
}

// flow is one assembled client–server pair: its own path, the gateway's
// monitor and controller on that path, a TCP pair, and the server and
// browser of one page load. The target and every fleet decoy are built by
// buildFlow and differ only in its inputs.
type flow struct {
	Path       *netsim.Path
	Pair       *tcpsim.Pair
	Site       *website.Site
	Plan       *website.Plan
	Server     *endpoint.Server
	Browser    *endpoint.Browser
	Monitor    *capture.Monitor
	Controller *adversary.Controller
}

// start begins the page load.
func (f *flow) start() {
	f.Server.Start()
	f.Browser.Start()
}

// buildFlow assembles one flow on sched, drawing everything from rng, the
// flow's root RNG, in the fork order every flow shares: path, controller,
// cross traffic (when cfg asks for it), TCP pair, plan, server, browser.
// cfg is the flow's view of the trial; plan draws the request plan for
// site. ins arms every layer, except that only the browser's HTTP/2
// connection feeds ins.Flows.
func buildFlow(sched *simtime.Scheduler, rng *simtime.Rand, cfg *TrialConfig, site *website.Site,
	plan func(*website.Site, *simtime.Rand) (*website.Plan, error), ins instr.Bundle) (flow, error) {
	f := flow{Site: site}
	var err error
	f.Path, err = netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: cfg.Link}, ins)
	if err != nil {
		return f, fmt.Errorf("path: %w", err)
	}
	// The monitor taps the path; the controller installs its processor.
	// Taps observe at middlebox ingress, before the adversary's own
	// delays, so the adversary never confuses itself.
	f.Monitor = capture.NewMonitor(ins)
	f.Path.AddTap(f.Monitor)
	f.Controller = adversary.NewController(sched, rng.Fork(), f.Path, ins)
	if cfg.CrossTrafficBps > 0 {
		ct := netsim.NewCrossTraffic(sched, rng.Fork(), f.Path, cfg.CrossTrafficBps, 0)
		// The page load and attack finish well inside 40 s, and the
		// generator stops by itself once nothing else is pending; the
		// deadline bounds it while something else, a fleet's decoys or a
		// late timer, keeps the trial busy.
		ct.StopAt(40 * time.Second)
		sched.At(0, ct.Start)
	}
	tcp := cfg.TCP
	if tcp.Pool == nil {
		tcp.Pool = cfg.Pool
	}
	f.Pair, err = tcpsim.NewPair(sched, rng.Fork(), f.Path, tcp, ins)
	if err != nil {
		return f, fmt.Errorf("tcp: %w", err)
	}
	f.Plan, err = plan(site, rng)
	if err != nil {
		return f, fmt.Errorf("plan: %w", err)
	}
	scfg, bcfg := cfg.Server, cfg.Browser
	if cfg.ServerPush {
		scfg.PushEmblems = true
		bcfg.AcceptPush = true
	}
	sins := ins
	sins.Flows = nil
	f.Server, err = endpoint.NewServer(sched, rng.Fork(), f.Pair.Server, site, scfg, sins)
	if err != nil {
		return f, fmt.Errorf("server: %w", err)
	}
	f.Browser, err = endpoint.NewBrowser(sched, rng.Fork(), f.Pair.Client, site, f.Plan, bcfg, ins)
	if err != nil {
		return f, fmt.Errorf("browser: %w", err)
	}
	return f, nil
}

// NewTestbed assembles all components for a trial without starting it.
func NewTestbed(cfg TrialConfig) (*Testbed, error) {
	if fc := cfg.Fleet; fc != nil {
		if err := fc.validate(cfg.Attack); err != nil {
			return nil, err
		}
	}
	if cfg.Link.BandwidthBps == 0 {
		cfg.Link = DefaultLink()
	}
	if cfg.Duration == 0 {
		cfg.Duration = 120 * time.Second
	}
	sched := simtime.NewScheduler()
	// Watchdogs and cancellation arm before any component schedules: all
	// three are pure scheduler-side guards that consume no RNG draws and
	// schedule no events, so an armed-but-untripped trial stays
	// byte-identical to an unsupervised one.
	if cfg.StepBudget > 0 {
		sched.SetStepBudget(cfg.StepBudget)
	}
	if ctx := cfg.Ctx; ctx != nil {
		sched.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	// The instruments were built before the trial's clock existed; stamp
	// them from this trial's virtual time. The trace and the flowseq rows
	// carry the same flow identifier as the pcap export, so all three
	// views of one connection join on it.
	ins := cfg.Bundle
	if cfg.Fleet != nil && ins.Flows == nil {
		// The fleet's selector scores every flow by its capture-visible
		// features, so the target needs an analyzer even with features
		// off. This private one flushes nowhere; analyzers draw no RNG and
		// schedule no events, so arming features never changes selection.
		ins.Flows = flowseq.New(0, nil)
	}
	if ins.Trace.Enabled() {
		ins.Trace.SetClock(sched)
		ins.Trace.SetMeta("flow", capture.FlowID())
	}
	if ins.Flows.Enabled() {
		ins.Flows.SetClock(sched)
		ins.Flows.SetFlow(capture.FlowID())
	}
	if ins.Check.Enabled() {
		ins.Check.SetClock(sched.Now)
		sched.SetStepHook(ins.Check.SchedulerStep)
	}

	rng := simtime.NewRand(cfg.Seed)
	f, err := buildFlow(sched, rng, &cfg, website.ISideWith(), cfg.userPlan, ins)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tb := &Testbed{Sched: sched, flow: f, cfg: cfg}
	if cfg.Fleet == nil || cfg.Fleet.armsAtBuild() {
		if cfg.Attack != nil {
			tb.Driver, err = adversary.NewDriver(sched, tb.Controller, tb.Monitor, *cfg.Attack)
			if err != nil {
				return nil, fmt.Errorf("core: attack plan: %w", err)
			}
			tb.drivers = append(tb.drivers, tb.Driver)
		} else {
			applyKnobs(sched, &cfg, tb.Controller)
		}
	}

	// Fault injection arms last: its RNG fork is taken only when a
	// scenario is named, so un-faulted trials consume the exact seed
	// streams they always did.
	if cfg.Scenario != "" {
		sc, ok := netsim.LookupScenario(cfg.Scenario)
		if !ok {
			return nil, fmt.Errorf("core: unknown fault scenario %q (have %v)", cfg.Scenario, netsim.ScenarioNames())
		}
		inj := netsim.NewInjector(sched, rng.Fork(), tb.Path, ins)
		inj.SetWiper(tb.Controller)
		sc.Arm(inj)
		tb.Injector = inj
	}
	// Chaos-hang injection arms last so it perturbs nothing before the
	// trial is fully assembled (the trial is sacrificial either way).
	if cfg.Chaos == ChaosHang {
		armChaosHang(sched)
	}
	if cfg.Fleet != nil {
		if err := tb.buildFleet(ins); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// userPlan draws the target's request plan: the volunteer's party
// ranking (TrialConfig.Perm, or one drawn from the seed) in request
// order, shuffled under the §VII defense.
func (cfg *TrialConfig) userPlan(site *website.Site, rng *simtime.Rand) (*website.Plan, error) {
	perm := cfg.Perm
	if perm == nil {
		perm = website.RandomPerm(rng.Fork())
	}
	if cfg.ShuffledEmblemOrder {
		return site.PlanForShuffled(perm, rng.Fork())
	}
	return site.PlanFor(perm)
}

// applyKnobs arms the single-parameter interference knobs (§IV) on one
// flow's controller: at construction in a standalone trial, at selection
// in a fleet. The drop window opens at DropFrom, or at once when the flow
// is armed later than that.
func applyKnobs(sched *simtime.Scheduler, cfg *TrialConfig, ctrl *adversary.Controller) {
	if cfg.RequestSpacing > 0 {
		ctrl.SetRequestSpacing(cfg.RequestSpacing)
	}
	if cfg.RandomJitter > 0 {
		ctrl.SetRandomJitter(netsim.ClientToServer, cfg.RandomJitter)
		ctrl.SetRandomJitter(netsim.ServerToClient, cfg.RandomJitter)
	}
	if cfg.ThrottleBps > 0 {
		ctrl.Throttle(cfg.ThrottleBps)
	}
	if cfg.DropRate > 0 && cfg.DropDuration > 0 {
		sched.At(max(sched.Now(), cfg.DropFrom), func() {
			ctrl.DropServerData(cfg.DropRate, cfg.DropRate, cfg.DropDuration)
		})
	}
}

// Run starts the target's page load and executes the trial to quiescence
// or the configured duration, returning the collected result.
func (tb *Testbed) Run() *TrialResult {
	if tb.cfg.Chaos == ChaosPanic {
		panic(chaosPanicValue(tb.cfg.Seed))
	}
	sp := tb.cfg.Perf.Start(perf.StageRun)
	tb.start()
	tb.Sched.RunUntil(tb.cfg.Duration)
	sp.Stop()
	if tb.Sched.Interrupted() {
		// Cooperatively cancelled mid-run: the simulation stopped between
		// events, so capture parsing and the checker's end-of-trial
		// conservation invariants would all fire on half-flight state.
		// Return no result; RunTrial surfaces ctx.Err() instead.
		return nil
	}
	return tb.collect()
}

// RunTrial assembles and runs one trial. With TrialConfig.Ctx armed and
// cancelled — before the build or mid-run via the scheduler's cooperative
// interrupt — it returns ctx.Err() instead of a half-computed result, so
// a draining sweep never publishes partial trials.
func RunTrial(cfg TrialConfig) (*TrialResult, error) {
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return nil, cfg.Ctx.Err()
	}
	sp := cfg.Perf.Start(perf.StageBuild)
	tb, err := NewTestbed(cfg)
	sp.Stop()
	if err != nil {
		return nil, err
	}
	res := tb.Run()
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return nil, cfg.Ctx.Err()
	}
	return res, nil
}

// TrialResult is everything a trial yields.
type TrialResult struct {
	// Perm is the user's true preference permutation.
	Perm []int
	// TrueSeq is the emblem request order (what traffic analysis can
	// reconstruct at best).
	TrueSeq []string
	// DisplaySeq is the displayed ranking — the secret the attack is
	// after. Equal to TrueSeq unless the §VII defense shuffles requests.
	DisplaySeq []string
	// InferredSeq is the adversary's reconstruction from the traffic.
	InferredSeq []string
	// DoM is the ground-truth degree of multiplexing per instance.
	DoM map[string]float64
	// BestDoM is the per-object minimum across instances.
	BestDoM map[string]float64
	// BestCompleteDoM restricts the minimum to complete servings — the
	// success criterion uses it (a partial fragment cannot leak a size).
	BestCompleteDoM map[string]float64
	// Bursts are the predictor's segmented server→client bursts.
	Bursts []predict.Burst
	// Identified is the set of object ids the predictor matched.
	Identified map[string]bool
	// Completed maps object id → completion time at the browser.
	Completed map[string]time.Duration
	// Broken reports a dead page load; BrokenReason explains it.
	Broken       bool
	BrokenReason string
	// Resets and AppRetries are the browser's §IV-D/§IV-B behaviours.
	Resets     int
	AppRetries int
	// MonitorRetransmits counts retransmitted segments seen on path.
	MonitorRetransmits int
	// RetransC2S / RetransS2C split retransmissions by direction: the
	// client→server count is the paper's §IV-B "retransmission requests";
	// the server→client count dominates Fig. 5's bandwidth study.
	RetransC2S int
	RetransS2C int
	// GETs is the monitor's GET count.
	GETs int
	// ServerTasks counts stream-serving tasks (duplicates included).
	ServerTasks int
	// Attacked reports whether the target's staged-attack driver was
	// armed; PhaseSpans then carries its per-phase virtual-time durations.
	// Keeping these on the result lets PublishTrialMetrics run after the
	// testbed is gone — the sweep engine publishes completed trials in
	// index order, decoupled from the worker that ran them.
	Attacked   bool
	PhaseSpans []adversary.PhaseSpan
	// PhaseLogs holds the PhaseLog of every driver the trial armed, in
	// arming order: the target's and, in a fleet, each selected decoy's.
	// FinalPhase is the target driver's phase at collection or, with no
	// target driver, the phase some driver entered last (ties in virtual
	// time go to the later-armed driver); zero when no driver was armed.
	PhaseLogs  [][]adversary.PhaseChange
	FinalPhase adversary.Phase
	// Interventions sums the adversary's ControllerStats over every flow:
	// the target's and, in a fleet, each decoy's.
	Interventions adversary.ControllerStats
	// Outcome is the driver's terminal classification of an attacked
	// trial (clean-slate, retry-clean-slate, degraded, broken);
	// AttackAttempts counts drop windows opened. Both are zero for
	// un-attacked trials.
	Outcome        adversary.Outcome
	AttackAttempts int
	// FaultLog holds the injected fault transitions, in virtual-time
	// order. It is non-nil exactly when a Scenario was armed.
	FaultLog []netsim.FaultTransition
	// CheckViolations is the trial's invariant-violation count when
	// TrialConfig.Check was armed (including end-of-trial conservation
	// checks); zero otherwise.
	CheckViolations int
	// Features carries the flowseq analyzer's finalized per-stream
	// timelines, burst tables and clean-slate spans when TrialConfig.Flows
	// was armed; nil otherwise.
	Features *flowseq.FlowFeatures
	// Fleet carries the shared-bottleneck topology's per-trial outcome —
	// target selection, budget accounting, decoy page-load fates and the
	// aggregate link stats — when TrialConfig.Fleet was armed; nil
	// otherwise.
	Fleet *FleetOutcome
	// Quarantined marks a placeholder result the sweep supervision layer
	// slotted in for a trial that failed permanently (panic or watchdog
	// timeout after its retries). Placeholders read as broken loads in the
	// reports but are skipped by the metrics publisher; the structured
	// failure lives in the sweep's quarantine record. See
	// QuarantinedResult.
	Quarantined bool
}

// collect runs the capture half of collection, adds the fleet outcome,
// then hands the checker every link's final stats — summed per direction
// over the target and the decoys, plus the bottleneck's aggregate — and
// runs its end-of-trial checks.
func (tb *Testbed) collect() *TrialResult {
	res := tb.collectCapture()
	fl := tb.fleet
	if fl != nil {
		res.Fleet = fl.outcome(tb, res.Interventions)
	}
	if ck := tb.cfg.Check; ck.Enabled() {
		csp := tb.cfg.Perf.Start(perf.StageCheck)
		for _, dir := range []netsim.Direction{netsim.ClientToServer, netsim.ServerToClient} {
			d := uint8(check.DirC2S)
			if dir == netsim.ServerToClient {
				d = check.DirS2C
			}
			st := tb.Path.Link(dir).Stats()
			if fl != nil {
				for i := range fl.decoys {
					addStats(&st, fl.decoys[i].Path.Link(dir).Stats())
				}
			}
			ck.LinkStatsFinal(d, st.Sent, st.Delivered, st.Duplicated,
				st.DroppedLoss, st.DroppedPolicy, st.DroppedQueue, st.DroppedFault,
				st.BytesDelivered)
			if fl != nil {
				ast := fl.bn.Stats(dir)
				ck.AggStatsFinal(d, ast.Forwarded, ast.Bytes, ast.DroppedQueue)
			}
		}
		res.CheckViolations = ck.Finalize()
		csp.Stop()
	}
	return res
}

// collectCapture runs the capture half of collection: monitor reads, DoM
// metrics, burst segmentation, prediction, the adversary's and fault
// injector's counts, and feature finalization.
func (tb *Testbed) collectCapture() *TrialResult {
	sp := tb.cfg.Perf.Start(perf.StageCapture)
	dom := metrics.AnalyzeDoM(tb.Server.TxLog(), tb.Site.Sizes())
	res := &TrialResult{
		Perm:               append([]int(nil), tb.Plan.Perm...),
		TrueSeq:            tb.Plan.EmblemRequestOrder(),
		DisplaySeq:         tb.Plan.EmblemDisplayOrder(),
		DoM:                dom.PerInstance,
		BestDoM:            dom.BestPerObject,
		BestCompleteDoM:    dom.BestComplete,
		Completed:          tb.Browser.Result().Completed,
		Broken:             tb.Browser.Result().Broken,
		BrokenReason:       tb.Browser.Result().BrokenReason,
		Resets:             tb.Browser.Result().Resets,
		AppRetries:         tb.Browser.Result().AppRetries,
		MonitorRetransmits: tb.Monitor.TotalRetransmits(),
		RetransC2S:         tb.Monitor.Stats(netsim.ClientToServer).Retransmits,
		RetransS2C:         tb.Monitor.Stats(netsim.ServerToClient).Retransmits,
		GETs:               tb.Monitor.GETCount(),
		ServerTasks:        tb.Server.TasksServed(),
	}
	analyzer := predict.NewAnalyzer(tb.Site.SizeToIdentity(), tb.cfg.Predict)
	res.Bursts = analyzer.Bursts(tb.Monitor.Records())
	res.Identified = analyzer.MatchedObjects(res.Bursts)
	res.InferredSeq = analyzer.InferSequence(res.Bursts, res.TrueSeq)
	res.Interventions = tb.Controller.Stats()
	if fl := tb.fleet; fl != nil {
		for i := range fl.decoys {
			addInterventions(&res.Interventions, fl.decoys[i].Controller.Stats())
		}
	}
	var lastAt time.Duration
	for _, d := range tb.drivers {
		res.PhaseLogs = append(res.PhaseLogs, d.PhaseLog)
		if pc := d.PhaseLog[len(d.PhaseLog)-1]; pc.Time >= lastAt {
			res.FinalPhase, lastAt = pc.Phase, pc.Time
		}
	}
	if tb.Driver != nil {
		res.Attacked = true
		res.PhaseSpans = tb.Driver.PhaseSpans(tb.Sched.Now())
		res.FinalPhase = tb.Driver.Phase()
		res.Outcome = tb.Driver.FinalOutcome(res.Broken)
		res.AttackAttempts = tb.Driver.Attempts()
		if tb.cfg.Trace.Enabled() {
			tb.cfg.Trace.Emit(trace.LayerAdversary, "outcome",
				trace.Str("outcome", res.Outcome.String()),
				trace.Num("attempts", int64(res.AttackAttempts)))
		}
	}
	if tb.Injector != nil {
		res.FaultLog = append([]netsim.FaultTransition{}, tb.Injector.Log()...)
	}
	if tb.cfg.Flows.Enabled() {
		res.Features = tb.cfg.Flows.Finalize()
	}
	sp.Stop()
	return res
}

// phaseGaugeHelp is the phase gauge's help text; the registry requires a
// stable help string per metric name.
const phaseGaugeHelp = "Current attack phase (1 jitter+count, 2 throttle+drop, 3 space-images, 4 passive)."

// PublishTrialMetrics records a completed trial's outcome into the armed
// registry — the aggregate signals the paper's evaluation is built from,
// and the adversary's and fault injector's counts, one update per trial.
// The registry is a view of committed results: no layer writes to it, so
// an abandoned attempt leaves nothing there. Every value is derived from
// virtual time or event counts, so same-seed sweeps produce identical
// registry snapshots (the manifest's byte-identity contract); nothing here
// reads the wall clock. The caller publishes each result once — the
// parallel sweep engine in trial-index order, because histogram sums are
// float additions (order-sensitive in the last bits) and the phase gauge
// is last-writer-wins. Nil registry or result is a no-op.
func PublishTrialMetrics(reg *obs.Registry, res *TrialResult) {
	(&TrialPublisher{reg: reg}).Publish(res)
}

// TrialPublisher publishes trial outcomes into one registry, caching the
// resolved instrument handles so a sweep's publication drain pays the
// name-lookup cost once instead of once per trial. Families that only
// exist conditionally (broken trials, completed page loads, attacked
// trials) are resolved on first use, preserving the registry-snapshot
// byte-identity of the uncached path: a family a sweep never needed never
// appears in the export. The zero value with a nil registry is a no-op.
type TrialPublisher struct {
	reg *obs.Registry

	trials, gets, resets, dupGets, serverTasks *obs.Counter
	retransC2S, retransS2C                     *obs.Counter
	drops, delayed, jittered, throttles        *obs.Counter
	broken                                     *obs.Counter    // lazy: only broken trials create it
	pageLoad                                   *obs.Histogram  // lazy: only completed loads create it
	faults                                     *obs.CounterVec // lazy: only fault-injected trials create it

	transitions *obs.CounterVec // lazy pair: only trials that armed a driver create these
	phaseGauge  *obs.Gauge

	attackTrials *obs.Counter // lazy block: only attacked trials create these
	cleanSlate   *obs.Counter
	phaseVec     *obs.HistogramVec
	outcomeVec   *obs.CounterVec
}

// NewTrialPublisher returns a publisher bound to reg (nil → no-op).
func NewTrialPublisher(reg *obs.Registry) *TrialPublisher {
	return &TrialPublisher{reg: reg}
}

// Publish records one completed trial. See PublishTrialMetrics for the
// ordering contract; callers publishing a parallel sweep must invoke it in
// trial-index order.
func (p *TrialPublisher) Publish(res *TrialResult) {
	if p == nil || p.reg == nil || res == nil {
		return
	}
	if res.Quarantined {
		// Placeholder for a quarantined trial: publishing it would book a
		// phantom broken page load. The sweep's supervision counters
		// (sweep_trials_quarantined and friends) account for it instead.
		return
	}
	reg := p.reg
	flowseq.PublishFeatures(reg, res.Features)
	if p.trials == nil {
		p.trials = reg.Counter("h2privacy_trials_total", "Page-load trials completed.")
		p.gets = reg.Counter("h2privacy_monitor_gets_total", "GET requests classified at the gateway monitor.")
		retrans := reg.CounterVec("h2privacy_tcp_retransmits_observed_total",
			"Retransmitted TCP segments observed at the gateway, by direction.", "dir")
		p.retransC2S = retrans.With("c2s")
		p.retransS2C = retrans.With("s2c")
		p.resets = reg.Counter("h2privacy_browser_resets_total", "Browser stall-triggered stream-reset cycles.")
		p.dupGets = reg.Counter("h2privacy_browser_duplicate_gets_total", "Browser duplicate (retried) GET requests.")
		p.serverTasks = reg.Counter("h2privacy_server_tasks_total", "Stream-serving tasks executed by the server (duplicates included).")
		p.drops = reg.Counter("h2privacy_adversary_drops_total",
			"Packets dropped by the adversary's targeted-drop window.")
		p.delayed = reg.Counter("h2privacy_adversary_delayed_gets_total",
			"GET requests delayed by the per-request jitter schedule.")
		p.jittered = reg.Counter("h2privacy_adversary_jittered_packets_total",
			"Packets given netem-style random jitter.")
		p.throttles = reg.Counter("h2privacy_adversary_throttle_events_total",
			"Bandwidth-limit changes applied to the path.")
	}
	p.trials.Inc()
	if res.Broken {
		if p.broken == nil {
			p.broken = reg.Counter("h2privacy_trials_broken_total", "Trials whose page load broke.")
		}
		p.broken.Inc()
	}
	p.gets.Add(int64(res.GETs))
	p.retransC2S.Add(int64(res.RetransC2S))
	p.retransS2C.Add(int64(res.RetransS2C))
	p.resets.Add(int64(res.Resets))
	p.dupGets.Add(int64(res.AppRetries))
	p.serverTasks.Add(int64(res.ServerTasks))
	p.drops.Add(int64(res.Interventions.DroppedPkts))
	p.delayed.Add(int64(res.Interventions.DelayedGETs))
	p.jittered.Add(int64(res.Interventions.JitteredPkts))
	p.throttles.Add(int64(res.Interventions.ThrottleEvents))
	if res.FaultLog != nil {
		if p.faults == nil {
			p.faults = reg.CounterVec("h2privacy_fault_transitions_total",
				"Fault-injection transitions applied to the path, by fault kind.", "kind")
		}
		for _, ft := range res.FaultLog {
			p.faults.With(ft.Kind).Inc()
		}
	}
	if len(res.PhaseLogs) > 0 {
		if p.transitions == nil {
			p.transitions = reg.CounterVec("h2privacy_adversary_phase_transitions_total",
				"Attack phase transitions.", "phase")
			p.phaseGauge = reg.Gauge("h2privacy_adversary_phase", phaseGaugeHelp)
		}
		for _, log := range res.PhaseLogs {
			for _, pc := range log {
				p.transitions.With(pc.Phase.String()).Inc()
			}
		}
		p.phaseGauge.Set(float64(res.FinalPhase))
	}

	// Page-load completion time: the last object's virtual completion.
	var last time.Duration
	for _, at := range res.Completed {
		if at > last {
			last = at
		}
	}
	if last > 0 {
		if p.pageLoad == nil {
			p.pageLoad = reg.Histogram("h2privacy_page_load_seconds",
				"Virtual time from trial start to the last completed object.",
				obs.DurationBuckets)
		}
		p.pageLoad.Observe(last.Seconds())
	}

	if !res.Attacked {
		return
	}
	// Staged-attack trials additionally record the clean-slate outcome —
	// did the reset cycle leave the quiz HTML serialized and identified —
	// and how long each phase of the attack ran in virtual time.
	if p.attackTrials == nil {
		p.attackTrials = reg.Counter("h2privacy_attack_trials_total", "Trials run with the full staged adversary.")
		p.phaseVec = reg.HistogramVec("h2privacy_adversary_phase_seconds",
			"Virtual-time duration of each attack phase.", obs.DurationBuckets, "phase")
		p.outcomeVec = reg.CounterVec("h2privacy_attack_outcome_total",
			"Attack trials by terminal outcome classification.", "outcome")
	}
	p.attackTrials.Inc()
	if res.ObjectSuccess(website.TargetID) {
		// Lazy like the broken counter: the success family only exists in
		// an export if some attacked trial actually succeeded.
		if p.cleanSlate == nil {
			p.cleanSlate = reg.Counter("h2privacy_attack_clean_slate_success_total",
				"Attack trials where the target transmitted serialized after the reset and was identified.")
		}
		p.cleanSlate.Inc()
	}
	for _, span := range res.PhaseSpans {
		p.phaseVec.With(span.Phase.String()).Observe(span.Duration.Seconds())
	}
	// Every attacked trial ends in exactly one classified outcome.
	p.outcomeVec.With(res.Outcome.String()).Inc()
}

// ObjectSuccess reports the paper's success criterion for one object: its
// degree of multiplexing was driven to zero (some serving transmitted
// serialized) AND the predictor identified it from the encrypted traffic.
func (r *TrialResult) ObjectSuccess(objectID string) bool {
	dom, ok := r.BestCompleteDoM[objectID]
	return ok && dom == 0 && r.Identified[objectID]
}

// SequenceRankCorrect reports whether the adversary's inferred emblem at
// the given rank matches the displayed ranking (Table II's all-objects
// mode). Under the §VII defense the request order no longer matches the
// display order, so this is what collapses.
func (r *TrialResult) SequenceRankCorrect(rank int) bool {
	if rank >= len(r.DisplaySeq) || rank >= len(r.InferredSeq) {
		return false
	}
	return r.InferredSeq[rank] == r.DisplaySeq[rank]
}
