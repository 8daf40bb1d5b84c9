package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/simtime"
)

// This file is the sweep engine's trial supervision layer. Every core
// trial launched by sweep() runs under a supervisor that
//
//   1. isolates panics: recover() converts a panicking trial into a
//      structured TrialFailure instead of tearing down the whole sweep;
//   2. enforces watchdogs: a virtual-time step budget (Options.StepBudget
//      → simtime.BudgetError, deterministic) and an optional wall-clock
//      deadline (Options.TrialDeadline → simtime.DeadlineError,
//      best-effort) kill wedged simulations loudly instead of hanging;
//   3. retries failed trials up to Options.MaxRetries times with
//      escalating backoff (each attempt on fresh per-trial state — new
//      scheduler, RNG, checker, analyzer — so a deterministic failure
//      fails identically and a host-side flake gets a clean slate);
//   4. quarantines trials that stay dead: when Options.Quarantine is
//      armed, the permanent failure is recorded with its repro command,
//      a placeholder result keeps the sweep's index-aligned aggregation
//      total, and the sweep completes in *degraded* mode instead of
//      aborting.
//
// Determinism contract: supervision is observationally invisible on clean
// sweeps — watchdogs that never trip schedule nothing and consume no RNG
// draws, the sweep_trials_* metric families are registered lazily on the
// first failure, and the quarantine/degraded manifest fields are omitted
// when empty — so clean output stays byte-identical to the unsupervised
// engine. For identical failure sets the quarantine file, reports, CSVs
// and manifests are byte-identical at any worker count: failures are
// collected concurrently but always reported sorted by flat trial index,
// and panic values, step-budget trips and attempt counts are themselves
// deterministic. The only documented exception is the wall-clock deadline
// (a backstop against host-side wedges, not a reproducible observation);
// its failure detail carries host timing.
//
// Without a Quarantine collector the engine keeps its historical
// fail-fast behavior — lowest-index error wins, sweep aborts — except
// that panics now surface as structured *TrialFailure errors instead of
// crashing the process.

// FailureKind classifies why a supervised trial died.
type FailureKind string

const (
	// FailPanic: the trial body panicked (a bug, or injected ChaosPanic).
	FailPanic FailureKind = "panic"
	// FailTimeout: a watchdog tripped — the virtual-time step budget or
	// the wall-clock deadline.
	FailTimeout FailureKind = "timeout"
	// FailError: core.RunTrial returned an ordinary error.
	FailError FailureKind = "error"
)

// TrialFailure is the structured record of a failed trial attempt: which
// trial (flat sweep index), which seed reproduces it, how it died, how
// many attempts it was given, and the standalone repro command. It
// implements error, so the fail-fast path (no Quarantine armed) returns
// it through the sweep's lowest-index-error-wins machinery.
type TrialFailure struct {
	// Experiment is the owning experiment's id (Options.Experiment), empty
	// for sweeps run outside the experiment registry.
	Experiment string      `json:"experiment,omitempty"`
	Trial      int         `json:"trial"`
	Seed       int64       `json:"seed"`
	Kind       FailureKind `json:"kind"`
	Attempts   int         `json:"attempts"`
	Err        string      `json:"error"`
	// Repro is the standalone command that replays this exact failure;
	// stamped by the Quarantine collector's formatter (Quarantine.SetRepro,
	// installed by the cmds the way check.Recorder.SetRepro is).
	Repro string `json:"repro,omitempty"`

	cause error // non-nil for FailError; supports errors.Is/As through Unwrap
}

// Error renders the failure for the fail-fast path and logs.
func (f *TrialFailure) Error() string {
	return fmt.Sprintf("trial %d (seed %d) failed [%s] after %d attempt(s): %s",
		f.Trial, f.Seed, f.Kind, f.Attempts, f.Err)
}

// Unwrap exposes the underlying error (nil for panics and timeouts).
func (f *TrialFailure) Unwrap() error { return f.cause }

// Quarantine collects permanently failed trials and arms the sweep's
// degraded mode: with a non-nil Quarantine in Options, a trial that is
// still dead after its retries is recorded here — with a repro command —
// and replaced by a placeholder result (core.QuarantinedResult) so the
// sweep completes instead of aborting. Safe for concurrent use by sweep
// workers; all accessors report failures sorted by flat trial index so
// every derived artifact is byte-identical at any worker count.
type Quarantine struct {
	mu       sync.Mutex
	failures []TrialFailure
	repro    func(TrialFailure) string
}

// NewQuarantine returns an empty collector.
func NewQuarantine() *Quarantine { return &Quarantine{} }

// SetRepro installs the command formatter used to stamp each quarantined
// failure's standalone repro line (e.g. "h2attack -trials 1 -seed 42017
// -chaos panic:0"). Mirrors check.Recorder.SetRepro.
func (q *Quarantine) SetRepro(fn func(TrialFailure) string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.repro = fn
	q.mu.Unlock()
}

// add records one permanent failure, stamping its repro command.
func (q *Quarantine) add(f TrialFailure) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.repro != nil {
		f.Repro = q.repro(f)
	} else {
		f.Repro = fmt.Sprintf("re-run trial %d standalone with seed %d", f.Trial, f.Seed)
	}
	q.failures = append(q.failures, f)
}

// Len reports how many trials are quarantined.
func (q *Quarantine) Len() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.failures)
}

// Failures returns a copy of the quarantined failures sorted by flat
// trial index — completion order is worker-count-dependent, report order
// must not be.
func (q *Quarantine) Failures() []TrialFailure {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	out := make([]TrialFailure, len(q.failures))
	copy(out, q.failures)
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Trial < out[j].Trial })
	return out
}

// QuarantineReceipt is the manifest's quarantine summary: how many trials
// were lost and the full failure records. Derived from seeds, panic
// values and deterministic attempt counts, so StripWallClock keeps it —
// same failure sets must agree on it at any worker count.
type QuarantineReceipt struct {
	Quarantined int            `json:"quarantined"`
	Failures    []TrialFailure `json:"failures"`
}

// Receipt builds the manifest summary.
func (q *Quarantine) Receipt() QuarantineReceipt {
	f := q.Failures()
	return QuarantineReceipt{Quarantined: len(f), Failures: f}
}

// quarantineFile is the machine-readable quarantine artifact: version tag
// for downstream tooling, the producing tool, and one entry per
// quarantined trial with its repro command. Goroutine stacks are
// deliberately excluded — they carry goroutine IDs and scheduler-
// dependent frames that differ across worker counts and would break the
// artifact's byte-identity; stacks go to stderr at panic time instead.
type quarantineFile struct {
	Version  int            `json:"version"`
	Tool     string         `json:"tool,omitempty"`
	Failures []TrialFailure `json:"failures"`
}

// WriteJSON serializes the quarantine artifact as indented JSON.
func (q *Quarantine) WriteJSON(w io.Writer, tool string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(quarantineFile{Version: 1, Tool: tool, Failures: q.Failures()})
}

// WriteFile writes the quarantine artifact to path.
func (q *Quarantine) WriteFile(path, tool string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := q.WriteJSON(f, tool); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Supervision metric families. Registered lazily — on the first failure,
// never for a clean sweep — so an armed-but-untouched supervisor leaves
// the registry snapshot byte-identical to the unsupervised engine's
// (obs.Registry.Snapshot sorts families by name, so late registration
// cannot perturb ordering either). All four are integer counters bumped
// from worker goroutines; counts are deterministic for a given failure
// set, order of increments is not observable.
const (
	mfPanicked    = "sweep_trials_panicked"
	mfRetried     = "sweep_trials_retried"
	mfQuarantined = "sweep_trials_quarantined"
	mfTimedout    = "sweep_trials_timedout"
)

// countFailure bumps one supervision counter; no-op without a registry.
func (o Options) countFailure(name, help string) {
	if o.Metrics == nil {
		return
	}
	o.Metrics.Counter(name, help).Inc()
}

// superviseLogW resolves the supervisor's diagnostics destination.
func (o Options) superviseLogW() io.Writer {
	if o.SuperviseLog != nil {
		return o.SuperviseLog
	}
	return os.Stderr
}

// isCancellation reports whether err is cooperative-cancellation fallout
// rather than a trial failure: cancelled trials are never retried,
// quarantined or counted — the sweep drains and returns the context
// error.
func isCancellation(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// superviseTrial runs one fully-decorated trial config under the
// supervisor: panic isolation, up to 1+MaxRetries attempts with
// escalating backoff, then quarantine (degraded mode) or a structured
// fail-fast error. Per-attempt collaborators (checker, flow analyzer)
// are created fresh inside the attempt loop so a retry never inherits a
// half-poisoned shadow state; the cross-layer tracer is only ever armed
// on the first attempt so a retry cannot interleave into its ring buffer.
func (o Options) superviseTrial(flat int, cfg core.TrialConfig) (*core.TrialResult, error) {
	attempts := 1 + o.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	var last *TrialFailure
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if err := o.retryBackoff(attempt); err != nil {
				return nil, err
			}
			o.countFailure(mfRetried, "Trial attempts that were retries after a failed attempt.")
		}
		acfg := cfg
		if attempt > 1 {
			acfg.Trace = nil
		}
		// Fault injection is consulted per attempt, not per trial, so a
		// stateful hook can model transient faults ("attempt 1 dies,
		// attempt 2 is clean") — the scenario retries exist for. The cmds'
		// -chaos hook is a pure index lookup, so for it per-attempt and
		// per-trial are indistinguishable.
		if o.ChaosTrial != nil && acfg.Chaos == core.ChaosNone {
			acfg.Chaos = o.ChaosTrial(flat)
		}
		if o.Check != nil && acfg.Check == nil {
			acfg.Check = check.New(cfg.Seed, flat, o.Check)
			acfg.Check.SetExperiment(o.Experiment)
		}
		if o.Features != nil && acfg.Flows == nil {
			acfg.Flows = flowseq.New(flat, o.Features)
		}
		res, fail := o.attemptTrial(acfg, flat, attempt)
		if fail == nil {
			return res, nil
		}
		if isCancellation(fail.cause) {
			return nil, fail.cause
		}
		last = fail
	}
	last.Attempts = attempts
	last.Experiment = o.Experiment
	if o.Quarantine == nil {
		// Fail-fast mode: the structured failure feeds the engine's
		// lowest-index-error-wins machinery, exactly like a plain error
		// always has.
		return nil, last
	}
	o.Quarantine.add(*last)
	o.countFailure(mfQuarantined, "Trials permanently failed and quarantined after exhausting retries.")
	return core.QuarantinedResult(cfg.Seed, last.Err), nil
}

// retryBackoff sleeps the escalating inter-attempt delay (RetryBackoff,
// doubled per further retry), interruptible by Options.Ctx.
func (o Options) retryBackoff(attempt int) error {
	if o.RetryBackoff <= 0 {
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return o.Ctx.Err()
		}
		return nil
	}
	d := o.RetryBackoff << uint(attempt-2)
	if o.Ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-o.Ctx.Done():
		return o.Ctx.Err()
	case <-t.C:
		return nil
	}
}

// attemptTrial executes one attempt with panic isolation. A recovered
// panic is classified — watchdog trips (simtime.BudgetError /
// DeadlineError) as FailTimeout, everything else as FailPanic — and the
// attempt's checker is abandoned so violations recorded before the
// failure still reach the shared recorder (without the end-of-trial
// conservation checks, which would fire spuriously on mid-flight state).
// Goroutine stacks print to stderr only: they are not deterministic
// across worker counts and must stay out of every byte-identical
// artifact.
func (o Options) attemptTrial(cfg core.TrialConfig, flat, attempt int) (res *core.TrialResult, fail *TrialFailure) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		res = nil
		cfg.Check.Abandon()
		kind := FailPanic
		switch r.(type) {
		case *simtime.BudgetError, *simtime.DeadlineError:
			kind = FailTimeout
			o.countFailure(mfTimedout, "Trial attempts killed by a watchdog (step budget or wall deadline).")
		default:
			o.countFailure(mfPanicked, "Trial attempts that panicked.")
		}
		w := o.superviseLogW()
		fmt.Fprintf(w, "sweep: trial %d (seed %d) %s on attempt %d: %v\n",
			flat, cfg.Seed, kind, attempt, r)
		if kind == FailPanic {
			w.Write(debug.Stack())
		}
		fail = &TrialFailure{Trial: flat, Seed: cfg.Seed, Kind: kind, Attempts: attempt, Err: fmt.Sprint(r)}
	}()
	res, err := core.RunTrial(cfg)
	if err != nil {
		return nil, &TrialFailure{
			Trial: flat, Seed: cfg.Seed, Kind: FailError,
			Attempts: attempt, Err: err.Error(), cause: err,
		}
	}
	return res, nil
}
