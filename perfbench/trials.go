package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
	"h2privacy/internal/h2"
	"h2privacy/internal/metrics"
	"h2privacy/internal/netsim"
	"h2privacy/internal/perf"
	"h2privacy/internal/pool"
	"h2privacy/internal/predict"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/website"
)

// trialWorkload is a closed loop of attacked trials on one goroutine, one
// pool.Arena Reset between trials as a sweep worker does: the standalone
// Table II trial (fleetN 0), or the shared-bottleneck fleet trial with N
// flows and an interference budget of one. Its regen_s is the wall time
// to regenerate the paper report the trial belongs to.
type trialWorkload struct {
	fleetN       int
	reportID     string
	reportTrials int
}

// Correctness floors. The attack identifies the target in 94–95% of
// trials at the seed commit; the fleet's selector arms the target in
// every trial measured there.
const (
	attackIdentifiedFloor    = 85
	fleetTargetSelectedFloor = 80
)

// regenReps is the least number of report regenerations a run times.
const regenReps = 3

func (w *trialWorkload) config(seed int64) core.TrialConfig {
	plan := adversary.DefaultPlan()
	cfg := core.TrialConfig{Seed: seed, Attack: &plan}
	if w.fleetN > 0 {
		plan.Adaptive = true
		cfg.Fleet = &core.FleetConfig{N: w.fleetN, Budget: 1}
	}
	return cfg
}

func (w *trialWorkload) pageLoads() int {
	if w.fleetN > 0 {
		return w.fleetN
	}
	return 1
}

func (w *trialWorkload) warmUp(seed int64) error {
	_, err := core.RunTrial(w.config(seed))
	return err
}

// outcome is what one trial decided, reduced to what the benchmark checks.
type outcome struct {
	digest     [sha256.Size]byte
	failed     bool
	identified bool
	selected   bool
}

// outcomeOf digests the trial's decisions: identified objects, inferred
// sequence, attack outcome, GET and retransmit counts and the fleet's
// selected flows. A failed trial digests its error.
func outcomeOf(res *core.TrialResult, err error) outcome {
	h := sha256.New()
	if err != nil || res == nil {
		fmt.Fprintf(h, "failed %v", err)
		return outcome{digest: [sha256.Size]byte(h.Sum(nil)), failed: true}
	}
	ids := make([]string, 0, len(res.Identified))
	for id, ok := range res.Identified {
		if ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	fmt.Fprintf(h, "identified %v\ninferred %v\noutcome %s\ngets %d\nretrans %d %d %d\n",
		ids, res.InferredSeq, res.Outcome, res.GETs, res.RetransC2S, res.RetransS2C, res.MonitorRetransmits)
	o := outcome{identified: res.ObjectSuccess(website.TargetID), selected: res.Attacked}
	if res.Fleet != nil {
		fmt.Fprintf(h, "selected %v\n", res.Fleet.Selected)
		o.selected = res.Fleet.TargetSelected
	}
	o.digest = [sha256.Size]byte(h.Sum(nil))
	return o
}

// guarded runs one trial, turning a panic into an error.
func guarded(run func() (*core.TrialResult, error)) (res *core.TrialResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return run()
}

// timedTrials runs trials seed, seed+1, ... through core.RunTrial until
// budget has passed, and returns each trial's host milliseconds and
// outcome and the heap objects allocated meanwhile.
func (w *trialWorkload) timedTrials(seed int64, budget time.Duration) (ms []float64, outs []outcome, mallocs uint64) {
	arena := pool.New()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		arena.Reset()
		cfg := w.config(seed + int64(i))
		cfg.Pool = arena
		t0 := time.Now()
		res, err := guarded(func() (*core.TrialResult, error) { return core.RunTrial(cfg) })
		ms = append(ms, float64(time.Since(t0))/1e6)
		outs = append(outs, outcomeOf(res, err))
	}
	runtime.ReadMemStats(&m1)
	return ms, outs, m1.Mallocs - m0.Mallocs
}

// recordOutcomes counts attempts and failures and reports the outcome
// rates, checking the workload's correctness floor.
func (w *trialWorkload) recordOutcomes(outs []outcome, r *report) {
	var failed, identified, selected float64
	for _, o := range outs {
		if o.failed {
			failed++
		}
		if o.identified {
			identified++
		}
		if o.selected {
			selected++
		}
	}
	n := float64(len(outs))
	r.attempted += len(outs)
	r.failed += int(failed)
	idPct, selPct, failPct := pct(identified, n), pct(selected, n), pct(failed, n)
	r.set("identified_pct", idPct, "%")
	r.set("target_selected_pct", selPct, "%")
	r.set("failed_pct", failPct, "%")
	r.note("identified_pct %.2f %% target_selected_pct %.2f %% failed_pct %.2f %% (n=%d trials)", idPct, selPct, failPct, len(outs))
	r.check(failed == 0, "%d of %d trials failed", int(failed), len(outs))
	if w.fleetN == 0 {
		r.check(idPct >= attackIdentifiedFloor, "identified_pct %.1f%% below the %d%% floor", idPct, attackIdentifiedFloor)
	} else {
		r.check(selPct >= fleetTargetSelectedFloor, "target_selected_pct %.1f%% below the %d%% floor", selPct, fleetTargetSelectedFloor)
	}
}

// replayCheck compares the traced replay's digests with the untraced
// run's for the same seeds.
func replayCheck(timed, traced []outcome, r *report) {
	for i := range traced {
		if traced[i].digest != timed[i].digest {
			r.fail("trial %d: traced replay digest differs from the untraced run", i)
			return
		}
	}
	r.note("traced replay of %d trials matches the untraced digests", len(traced))
}

// digestReplayTrials is how many trials the end-to-end run replays traced.
const digestReplayTrials = 2

func (w *trialWorkload) endToEnd(seed int64, budget time.Duration, r *report) error {
	start := time.Now()
	ms, outs, mallocs := w.timedTrials(seed, budget*4/5)
	setMemPeak(r)
	n := float64(len(ms))
	r.set("trial_ms_p50", median(ms), "ms")
	r.set("trial_ms_p90", quantile(ms, 0.9), "ms")
	r.set("pageloads_per_s", n*float64(w.pageLoads())/(sum(ms)/1e3), "1/s")
	r.set("allocs_per_trial", float64(mallocs)/n, "count")
	r.note("trial_ms_p50/p90 over n=%d trials", len(ms))
	w.recordOutcomes(outs, r)

	var regen []float64
	var first [sha256.Size]byte
	for len(regen) < regenReps || time.Since(start) < budget {
		wall, digest, err := timeReport(w.reportID, w.reportTrials, seed)
		if err != nil {
			return err
		}
		if len(regen) == 0 {
			first = digest
		}
		r.check(digest == first, "%s report differs between regenerations of the same seed", w.reportID)
		regen = append(regen, wall.Seconds())
	}
	r.set("regen_s", median(regen), "s")
	r.note("regen_s: %s report at %d trials per point, median of %d", w.reportID, w.reportTrials, len(regen))

	k := digestReplayTrials
	if k > len(outs) {
		k = len(outs)
	}
	tr, err := w.trace(seed, k)
	if err != nil {
		return err
	}
	replayCheck(outs, tr.outs, r)
	return nil
}

// timeReport times one regeneration of a report through its registered
// runner, uninstrumented, and digests the report.
func timeReport(id string, trials int, seed int64) (time.Duration, [sha256.Size]byte, error) {
	runner, ok := experiment.Lookup(id)
	if !ok {
		return 0, [sha256.Size]byte{}, fmt.Errorf("no experiment %q", id)
	}
	opts := experiment.Options{Trials: trials, BaseSeed: seed, Workers: runtime.NumCPU()}
	start := time.Now()
	rep, err := runner(opts)
	wall := time.Since(start)
	if err != nil {
		return 0, [sha256.Size]byte{}, fmt.Errorf("%s: %w", id, err)
	}
	if len(rep.Rows) == 0 {
		return 0, [sha256.Size]byte{}, fmt.Errorf("%s: empty report", id)
	}
	return wall, reportDigest(rep), nil
}

func reportDigest(rep *experiment.Report) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%q\n%q\n%q\n", rep.ID, rep.Title, rep.Header, rep.Rows, rep.Notes)
	return [sha256.Size]byte(h.Sum(nil))
}

func (w *trialWorkload) traced(seed int64, budget time.Duration, r *report) error {
	ms, outs, _ := w.timedTrials(seed, budget/2)
	w.recordOutcomes(outs, r)
	tr, err := w.trace(seed, len(outs))
	if err != nil {
		return err
	}
	replayCheck(outs, tr.outs, r)
	n := float64(len(outs))
	r.set("trace_overhead_pct", 100*(median(tr.ms)/median(ms)-1), "%")
	setStages(r, tr.perf, n)
	if ev := tr.counts["simtime.events_per_trial"]; ev > 0 {
		r.set("simtime.ns_per_event", r.metrics["core.run_ms"].Value*1e6/(ev/n), "ns")
	}
	for name, v := range tr.counts {
		r.set(name, v/n, "count")
	}
	r.set("pool.hit_pct", pct(tr.poolHits, tr.poolGets), "%")
	if w.fleetN > 0 {
		r.set("endpoint.decoy_completed_pct", pct(tr.decoysCompleted, tr.decoys), "%")
	} else {
		r.set("predict.bursts_us", tr.burstsUS/n, "us")
		r.set("predict.infer_us", tr.inferUS/n, "us")
		r.set("metrics.dom_us", tr.domUS/n, "us")
	}
	setGC(r, tr.rt0, tr.rt1, n)
	setProfile(r, tr.samples, n)
	return nil
}

// setStages records the perf collector's core stages as milliseconds per
// trial.
func setStages(r *report, rep *perf.Report, trials float64) {
	for _, st := range rep.Stages {
		switch st.Stage {
		case "build", "run", "capture", "check":
			r.set("core."+st.Stage+"_ms", st.TotalMS/trials, "ms")
		}
	}
}

// traceRun is what a traced replay measured.
type traceRun struct {
	ms      []float64
	outs    []outcome
	perf    *perf.Report
	samples []sample
	rt0     runtimeCounters
	rt1     runtimeCounters
	// counts holds per-layer totals keyed by their per-trial metric name.
	counts                   map[string]float64
	poolGets, poolHits       float64
	decoys, decoysCompleted  float64
	burstsUS, inferUS, domUS float64
}

// trace replays trials seed..seed+n-1 with the perf collector, a CPU
// profile and the step probe armed. The standalone attack is assembled
// with core.NewTestbed and run with Testbed.Run, exactly as core.RunTrial
// does, so its layers' public counters can be read afterwards; the fleet
// runs through core.RunTrial and is counted from its result.
func (w *trialWorkload) trace(seed int64, n int) (*traceRun, error) {
	col := perf.NewCollector()
	pw := col.Worker()
	arena := pool.New()
	tr := &traceRun{counts: map[string]float64{}}
	tr.rt0 = readRuntime()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		arena.Reset()
		cfg := w.config(seed + int64(i))
		cfg.Pool = arena
		cfg.Perf = pw
		probe := newStepProbe()
		cfg.Ctx = probe
		var tb *core.Testbed
		tok := pw.BeginTrial()
		t0 := time.Now()
		res, err := guarded(func() (*core.TrialResult, error) {
			if cfg.Fleet != nil {
				return core.RunTrial(cfg)
			}
			sp := pw.Start(perf.StageBuild)
			b, err := core.NewTestbed(cfg)
			sp.Stop()
			if err != nil {
				return nil, err
			}
			tb = b
			return tb.Run(), nil
		})
		tr.ms = append(tr.ms, float64(time.Since(t0))/1e6)
		pw.EndTrial(tok)
		tr.outs = append(tr.outs, outcomeOf(res, err))
		st := arena.Stats()
		tr.poolGets += float64(st.Gets)
		tr.poolHits += float64(st.Hits)
		if res == nil {
			continue
		}
		tr.countResult(res)
		if tb != nil {
			tr.countTestbed(tb)
			b, inf, dom := retimeCapture(tb, cfg.Predict)
			tr.burstsUS += b
			tr.inferUS += inf
			tr.domUS += dom
		} else {
			tr.counts["simtime.events_per_trial"] += float64(probe.events())
		}
	}
	samples, err := prof.stop()
	if err != nil {
		return nil, err
	}
	tr.samples = samples
	tr.rt1 = readRuntime()
	pw.Close()
	tr.perf = col.Report()
	return tr, nil
}

// countResult adds the counts every trial result carries; on the fleet
// they describe the target flow, plus the shared bottleneck's totals.
func (tr *traceRun) countResult(res *core.TrialResult) {
	c := tr.counts
	c["predict.bursts_per_trial"] += float64(len(res.Bursts))
	c["adversary.attempts_per_trial"] += float64(res.AttackAttempts)
	c["endpoint.resets_per_trial"] += float64(res.Resets)
	c["endpoint.gets_per_trial"] += float64(res.GETs)
	f := res.Fleet
	if f == nil {
		return
	}
	fwd := float64(f.AggC2S.Forwarded + f.AggS2C.Forwarded)
	drops := float64(f.AggC2S.DroppedQueue + f.AggS2C.DroppedQueue)
	c["netsim.agg_forwarded_per_trial"] += fwd
	c["netsim.agg_queue_drops_per_trial"] += drops
	c["netsim.packets_per_trial"] += fwd + drops
	c["netsim.drops_per_trial"] += drops
	c["adversary.interventions_per_trial"] += float64(f.Interventions)
	for _, d := range f.Decoys {
		tr.decoys++
		if !d.Broken && d.Completed > 0 {
			tr.decoysCompleted++
		}
	}
}

// countTestbed adds the standalone trial's layer counters.
func (tr *traceRun) countTestbed(tb *core.Testbed) {
	c := tr.counts
	c["simtime.events_per_trial"] += float64(tb.Sched.Steps())
	for _, dir := range []netsim.Direction{netsim.ClientToServer, netsim.ServerToClient} {
		st := tb.Path.Link(dir).Stats()
		c["netsim.packets_per_trial"] += float64(st.Sent)
		c["netsim.drops_per_trial"] += float64(st.DroppedLoss + st.DroppedPolicy + st.DroppedQueue + st.DroppedFault)
	}
	for _, conn := range []*tcpsim.Conn{tb.Pair.Client, tb.Pair.Server} {
		st := conn.Stats()
		c["tcpsim.segments_per_trial"] += float64(st.SegmentsSent)
		c["tcpsim.retransmits_per_trial"] += float64(st.Retransmits())
		c["tcpsim.rto_per_trial"] += float64(st.RTOExpiries)
	}
	for _, hs := range []h2.ConnStats{tb.Browser.H2Stats(), tb.Server.H2Stats()} {
		for _, k := range hs.FramesSent {
			c["h2.frames_per_trial"] += float64(k)
		}
	}
	c["capture.records_per_trial"] += float64(len(tb.Monitor.Records()))
	c["adversary.dropped_pkts_per_trial"] += float64(tb.Controller.Stats().DroppedPkts)
}

// retimeFrame is retimeCapture's name in profiles; attribution drops its
// samples.
const retimeFrame = "main.retimeCapture"

// retimeCapture re-runs the prediction and degree-of-multiplexing calls
// core's collection makes, on the trial's own monitor records and server
// transmit log, and returns each one's host microseconds.
//
//go:noinline
func retimeCapture(tb *core.Testbed, cfg predict.Config) (burstsUS, inferUS, domUS float64) {
	an := predict.NewAnalyzer(tb.Site.SizeToIdentity(), cfg)
	t0 := time.Now()
	bursts := an.Bursts(tb.Monitor.Records())
	t1 := time.Now()
	an.MatchedObjects(bursts)
	an.InferSequence(bursts, tb.Plan.EmblemRequestOrder())
	t2 := time.Now()
	metrics.DegreeOfMultiplexing(tb.Server.TxLog())
	t3 := time.Now()
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	return us(t1.Sub(t0)), us(t2.Sub(t1)), us(t3.Sub(t2))
}

// pollEvery mirrors the simulator scheduler's cooperative-cancellation
// poll interval in fired events.
const pollEvery = 1024

// stepProbe is a context that is never cancelled and counts how often the
// simulator's scheduler polls it: the scheduler polls once per pollEvery
// fired events, so polls×pollEvery counts a trial's events to within
// pollEvery without access to the scheduler itself. Polls from anywhere
// else (the sweep engine, core.RunTrial) are not counted.
type stepProbe struct {
	context.Context
	polls atomic.Int64
}

func newStepProbe() *stepProbe { return &stepProbe{Context: context.Background()} }

func (p *stepProbe) Err() error {
	var pcs [2]uintptr
	// Skip runtime.Callers, Err and the scheduler's interrupt closure.
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, repoPrefix+"simtime.") {
			p.polls.Add(1)
			break
		}
		if !more {
			break
		}
	}
	return nil
}

func (p *stepProbe) events() int64 { return p.polls.Load() * pollEvery }
