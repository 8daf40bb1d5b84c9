// Package perf is the sweep performance observatory: host-side (wall-clock,
// not virtual-clock) cost attribution for the trial lifecycle and the sweep
// worker pool. internal/obs and internal/trace observe the simulated world;
// this package observes the cost of simulating it, turning "the sweep is
// slow" into a ranked list of culprits.
//
// The model:
//
//   - A Collector aggregates one run's accounting. Each sweep worker
//     goroutine takes a Worker handle; each trial body is bracketed by
//     BeginTrial/EndTrial (busy time, queue wait) and split into named
//     Stages (Span) — testbed construction, scheduler run, capture
//     finalize, check finalize, metrics publication — with per-stage
//     wall-time and allocation deltas.
//   - Allocation deltas come from runtime/metrics (/gc/heap/allocs:*).
//     Those counters are process-global, so with workers>1 a stage's delta
//     includes whatever the other workers allocated meanwhile: per-stage
//     alloc attribution is exact at workers=1 and indicative (totals still
//     correct in aggregate) at workers>1. Wall-time attribution is exact at
//     any worker count. This is the documented caveat.
//   - When a CPU profile is being captured, EnableLabels arms pprof
//     goroutine labels (experiment, stage) around every span, so profile
//     samples attribute to stages without guesswork.
//   - Report snapshots the Collector into a JSON-serializable report with a
//     top-N hot-stage table; PublishTo mirrors stage and worker accounting
//     into an obs.Registry (sweep_stage_seconds, sweep_stage_allocs,
//     sweep_worker_busy_seconds, sweep_worker_idle_seconds) so /metrics and
//     the run manifest carry it.
//
// Contract: the nil *Collector (and the nil *Worker it hands out) is the
// disabled subsystem — every method is a zero-allocation no-op that reads
// no clocks, pinned by TestDisabledPerfZeroAllocs and BenchmarkPerfOverhead.
// Arming perf never touches the simulation: it only reads host clocks and
// allocation counters, so same-seed sweep output stays byte-identical at
// any worker count.
package perf

import (
	"context"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"h2privacy/internal/obs"
)

// Stage names one slice of a trial's host-side execution. The first five
// stages partition core.RunTrial; the last two are sweep-engine overheads
// that explain the sequential-vs-parallel gap (worker claim/spawn gaps and
// the deferred in-order registry drain).
type Stage uint8

// Trial and sweep stages, in lifecycle order.
const (
	// StageBuild is topology/endpoint construction (core.NewTestbed).
	StageBuild Stage = iota
	// StageRun is the scheduler run to quiescence.
	StageRun
	// StageCapture is capture finalize: monitor reads, burst segmentation
	// and prediction over the reassembled streams.
	StageCapture
	// StageCheck is invariant-check finalize (end-of-trial conservation
	// checks and violation flush).
	StageCheck
	// StagePublish is a single trial's metrics publication outside a sweep
	// (h2attack's single-trial path brackets PublishTrialMetrics with it).
	StagePublish
	// StageQueueWait is the gap a worker spends between trial bodies:
	// goroutine spawn latency before its first trial, then claim/config
	// overhead between trials.
	StageQueueWait
	// StagePublishDrain is the sweep engine's deferred publication path:
	// the index-ordered PublishTrialMetrics replay after the pool drains.
	StagePublishDrain
	// NumStages bounds the enum.
	NumStages
)

var stageNames = [NumStages]string{
	"build", "run", "capture", "check", "publish", "queue_wait", "publish_drain",
}

// String names the stage as used in reports, metrics labels and pprof labels.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames lists every stage name in lifecycle order.
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// runtime/metrics samples used for allocation deltas. Process-global: see
// the package comment's workers>1 caveat.
const (
	metricAllocBytes   = "/gc/heap/allocs:bytes"
	metricAllocObjects = "/gc/heap/allocs:objects"
)

// stageAgg is one stage's run-wide accounting, updated with atomics from
// every worker.
type stageAgg struct {
	count      atomic.Int64
	ns         atomic.Int64
	allocBytes atomic.Int64
	allocObjs  atomic.Int64
}

// Collector aggregates one run's host-side cost attribution. The zero value
// is not usable; call NewCollector. A nil *Collector is the disabled
// subsystem: every method (and every method of the nil Workers it returns)
// is a zero-alloc no-op.
type Collector struct {
	started time.Time
	labels  atomic.Bool // arm pprof goroutine labels around spans
	trials  atomic.Int64
	stages  [NumStages]stageAgg

	mu         sync.Mutex
	experiment string       // current experiment id, for pprof labels
	workers    []WorkerStat // closed workers, appended under mu
	nextWorker atomic.Int64

	// Armed by PublishTo: per-stage cached instruments so span Stop stays
	// lock-free on the hot path. The nil instruments (unpublished) are
	// no-ops per the obs contract.
	hStageSec    [NumStages]*obs.Histogram
	hStageAllocs [NumStages]*obs.Histogram
	hWorkerBusy  *obs.Histogram
	hWorkerIdle  *obs.Histogram
}

// AllocBuckets spans per-stage allocation-object counts, from near-free
// finalizers to full page-load object graphs.
var AllocBuckets = []float64{10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}

// MetricsPrefix is the family-name prefix of every registry series this
// package publishes. Everything under it is host wall-clock (or
// machine-dependent allocation) data, so experiment.StripWallClock drops
// these families from stripped manifests wholesale.
const MetricsPrefix = "sweep_"

// PublishTo mirrors stage and worker accounting into reg as it accrues:
// sweep_stage_seconds and sweep_stage_allocs histograms labeled by stage,
// and sweep_worker_{busy,idle}_seconds observed once per worker at Close.
// Every stage series is pre-created so the exported family shape does not
// depend on which stages happened to fire. No-op on nil collector or
// registry.
func (c *Collector) PublishTo(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	sec := reg.HistogramVec("sweep_stage_seconds",
		"Host wall time attributed to each trial/sweep stage.", obs.DefBuckets, "stage")
	allocs := reg.HistogramVec("sweep_stage_allocs",
		"Heap objects allocated during each trial/sweep stage (process-global sampling; exact at workers=1).",
		AllocBuckets, "stage")
	for s := Stage(0); s < NumStages; s++ {
		c.hStageSec[s] = sec.With(s.String())
		c.hStageAllocs[s] = allocs.With(s.String())
	}
	c.hWorkerBusy = reg.Histogram("sweep_worker_busy_seconds",
		"Per-worker time spent inside trial bodies, one observation per worker.", obs.DefBuckets)
	c.hWorkerIdle = reg.Histogram("sweep_worker_idle_seconds",
		"Per-worker open time outside trial bodies (spawn, claim gaps, tail wait).", obs.DefBuckets)
}

// NewCollector starts an armed collector.
func NewCollector() *Collector {
	return &Collector{started: time.Now()}
}

// EnableLabels arms pprof goroutine labels (experiment, stage) around every
// span — wanted only while a CPU profile is being captured, because label
// switching costs a few hundred nanoseconds per span.
func (c *Collector) EnableLabels() {
	if c == nil {
		return
	}
	c.labels.Store(true)
}

// BeginExperiment names the experiment whose trials run next; the name
// lands in the pprof "experiment" label of workers created afterwards.
// Harness runners call it before each experiment. No-op on nil.
func (c *Collector) BeginExperiment(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.experiment = id
	c.mu.Unlock()
}

// Worker hands out a worker-scoped handle: one per sweep worker goroutine
// (or one for the sequential loop). Workers are not safe for concurrent
// use — each goroutine takes its own — and must be Closed so busy/idle
// accounting lands in the report. Returns nil (the no-op worker) on nil.
func (c *Collector) Worker() *Worker {
	if c == nil {
		return nil
	}
	w := &Worker{
		c:      c,
		id:     int(c.nextWorker.Add(1)) - 1,
		opened: time.Now(),
	}
	w.samples[0].Name = metricAllocBytes
	w.samples[1].Name = metricAllocObjects
	if c.labels.Load() {
		c.mu.Lock()
		exp := c.experiment
		c.mu.Unlock()
		w.base = pprof.WithLabels(context.Background(), pprof.Labels("experiment", exp))
		ctxs := new([NumStages]context.Context)
		for s := Stage(0); s < NumStages; s++ {
			ctxs[s] = pprof.WithLabels(w.base, pprof.Labels("stage", s.String()))
		}
		w.stageCtx = ctxs
	}
	return w
}

// StartStage opens a collector-level span outside any worker — the sweep
// engine uses it for the deferred publication drain, which runs on the
// aggregating goroutine after the pool has drained. Returns the no-op span
// on nil.
func (c *Collector) StartStage(s Stage) Span {
	if c == nil {
		return Span{}
	}
	w := &Worker{c: c, id: -1, opened: time.Now()}
	w.samples[0].Name = metricAllocBytes
	w.samples[1].Name = metricAllocObjects
	return w.Start(s)
}

// addStage books one finished span. Hot path: four atomics plus (when
// PublishTo armed) two lock-free histogram observations.
func (c *Collector) addStage(s Stage, d time.Duration, allocBytes, allocObjs int64) {
	agg := &c.stages[s]
	agg.count.Add(1)
	agg.ns.Add(int64(d))
	agg.allocBytes.Add(allocBytes)
	agg.allocObjs.Add(allocObjs)
	c.hStageSec[s].Observe(d.Seconds())
	c.hStageAllocs[s].Observe(float64(allocObjs))
}

// Worker is one goroutine's handle into the collector. Not safe for
// concurrent use. The nil *Worker is the disabled handle: every method is
// a zero-alloc no-op.
type Worker struct {
	c        *Collector
	id       int
	base     context.Context             // pprof label base; nil unless labels armed
	stageCtx *[NumStages]context.Context // per-stage label contexts
	samples  [2]metrics.Sample           // reusable runtime/metrics buffer
	opened   time.Time
	lastEnd  time.Time // end of the previous trial body, for queue-wait
	busy     time.Duration
	trials   int
}

// readAllocs samples the process-global allocation counters.
func (w *Worker) readAllocs() (bytes, objects uint64) {
	metrics.Read(w.samples[:])
	return w.samples[0].Value.Uint64(), w.samples[1].Value.Uint64()
}

// TrialToken carries BeginTrial's timestamp to EndTrial.
type TrialToken struct {
	start time.Time
}

// BeginTrial brackets the start of one trial body, booking the queue wait
// since the worker's previous trial ended (or since the worker spawned).
// No-op on nil.
func (w *Worker) BeginTrial() TrialToken {
	if w == nil {
		return TrialToken{}
	}
	now := time.Now()
	wait := now.Sub(w.opened)
	if !w.lastEnd.IsZero() {
		wait = now.Sub(w.lastEnd)
	}
	w.c.addStage(StageQueueWait, wait, 0, 0)
	return TrialToken{start: now}
}

// EndTrial closes a trial body, accumulating worker busy time. No-op on nil.
func (w *Worker) EndTrial(tok TrialToken) {
	if w == nil {
		return
	}
	now := time.Now()
	w.busy += now.Sub(tok.start)
	w.trials++
	w.lastEnd = now
	w.c.trials.Add(1)
}

// Close records the worker's busy/idle split into the collector. Idle is
// the worker's open wall time minus trial-body time: pool spin-up, claim
// gaps and the tail wait while other workers finish. No-op on nil.
func (w *Worker) Close() {
	if w == nil {
		return
	}
	total := time.Since(w.opened)
	idle := total - w.busy
	if idle < 0 {
		idle = 0
	}
	st := WorkerStat{
		ID:     w.id,
		Trials: w.trials,
		BusyMS: float64(w.busy) / float64(time.Millisecond),
		IdleMS: float64(idle) / float64(time.Millisecond),
	}
	w.c.hWorkerBusy.Observe(w.busy.Seconds())
	w.c.hWorkerIdle.Observe(idle.Seconds())
	w.c.mu.Lock()
	w.c.workers = append(w.c.workers, st)
	w.c.mu.Unlock()
}

// Span is one in-flight stage measurement. Obtained from Worker.Start (or
// Collector.StartStage) and closed with Stop. A zero Span (from the nil
// worker) is a no-op.
type Span struct {
	w     *Worker
	stage Stage
	start time.Time
	b0    uint64
	o0    uint64
}

// Start opens a stage span on this worker's goroutine. Spans on one worker
// must be sequential, not nested — the trial stages are. No-op on nil.
func (w *Worker) Start(s Stage) Span {
	if w == nil {
		return Span{}
	}
	if w.stageCtx != nil {
		pprof.SetGoroutineLabels(w.stageCtx[s])
	}
	b, o := w.readAllocs()
	return Span{w: w, stage: s, start: time.Now(), b0: b, o0: o}
}

// Stop closes the span, booking wall time and allocation deltas. No-op on
// the zero span.
func (sp Span) Stop() {
	if sp.w == nil {
		return
	}
	d := time.Since(sp.start)
	b, o := sp.w.readAllocs()
	sp.w.c.addStage(sp.stage, d, int64(b-sp.b0), int64(o-sp.o0))
	if sp.w.stageCtx != nil {
		pprof.SetGoroutineLabels(sp.w.base)
	}
}

// Elapsed reports the collector's wall time so far (0 on nil).
func (c *Collector) Elapsed() time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(c.started)
}

// Trials reports completed trial bodies (0 on nil).
func (c *Collector) Trials() int64 {
	if c == nil {
		return 0
	}
	return c.trials.Load()
}

// StageTotal reports one stage's accumulated wall time (0 on nil) — the
// coverage tests compare stage sums against worker busy time through it.
func (c *Collector) StageTotal(s Stage) time.Duration {
	if c == nil || s >= NumStages {
		return 0
	}
	return time.Duration(c.stages[s].ns.Load())
}

// runtime.GOMAXPROCS is read at report time, not cached: a test may resize
// the pool mid-run.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
