// Package experiment regenerates every table and figure in the paper's
// evaluation: parameterized multi-trial sweeps over the core testbed, with
// text-table reports recording the measured values next to the paper's.
// See DESIGN.md §4 for the experiment index.
package experiment

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/obs"
	"h2privacy/internal/perf"
	"h2privacy/internal/trace"
)

// Options tunes a harness run.
type Options struct {
	// Trials per configuration point. Default 100 (the paper's count);
	// benchmarks use fewer.
	Trials int
	// BaseSeed offsets the per-trial seeds, for independent repetitions.
	BaseSeed int64
	// Workers bounds the sweep engine's trial worker pool: 0 (default)
	// uses runtime.GOMAXPROCS(0), 1 runs trials sequentially (the
	// historical behavior). Any value produces byte-identical reports,
	// CSVs, manifests and registry snapshots for the same seed — trials
	// are independent and the engine aggregates and publishes in trial
	// index order (see sweep.go).
	Workers int
	// Trace, when non-nil, is armed for trial 0 of the first sweep that
	// finds it empty — a sweep of 100 trials into one ring buffer would
	// just interleave and overwrite itself, so the harness traces one
	// representative trial and runs the rest dark. The choice is made
	// before fan-out, so it is deterministic at any worker count.
	Trace *trace.Tracer
	// Check, when non-nil, arms invariant checking on every trial of the
	// sweep: each trial gets its own check.Checker (seeded with the trial's
	// seed and flat trial index, so a violation report names the exact
	// repro seed) flushing into this shared recorder. Nil runs unchecked at
	// zero cost.
	Check *check.Recorder
	// Features, when non-nil, arms flowseq event-sequence analytics on every
	// trial of the sweep: each trial gets its own flowseq.Analyzer (keyed by
	// the flat trial index) finalizing into this shared collector, so the
	// run's per-stream timelines, burst tables and clean-slate spans can be
	// exported (CSV/JSONL) and served live at /debug/flows. The flow_*
	// histograms and labeled totals publish through the same deferred
	// in-order drain as the trial outcome metrics, and the per-flow counts
	// as each flow finalizes, so registry snapshots and exports stay
	// byte-identical at any worker count. Nil runs unanalyzed at zero cost.
	Features *flowseq.Collector
	// Perf, when non-nil, attributes the sweep's host-side cost: each
	// worker goroutine takes a perf.Worker handle, every trial body is
	// bracketed for busy/queue-wait accounting, core.RunTrial splits into
	// named stages, and the deferred publication drain is timed. Wall-clock
	// only — it never feeds the reports or the registry's deterministic
	// families, so same-seed output stays byte-identical at any worker
	// count. Nil disables at zero cost (the nil-collector contract).
	Perf *perf.Collector
	// Metrics, when non-nil, receives every committed trial's metrics
	// (core.PublishTrialMetrics), published in index order once each sweep
	// completes: the whole run accumulates into one registry, so a final
	// snapshot summarizes it. Nil keeps trials unmetered at zero cost.
	Metrics *obs.Registry
	// Progress, when non-nil, is ticked once per completed trial; the
	// caller drives its Start/Done around each experiment. Nil reports
	// nothing.
	Progress *Progress
	// NoPool disables trial-scoped buffer recycling. By default every
	// sweep worker owns a pool.Arena that trials reuse (tcpsim payload
	// buffers and segment graphs come from it and return to it when the
	// netsim graph releases them), reset between trials; pooling changes
	// where bytes live, never their contents, so reports, CSVs, manifests
	// and registry snapshots stay byte-identical with pooling on or off
	// at any worker count (pool_identity_test.go pins this). Set NoPool
	// to fall back to plain GC-allocated trials when diagnosing a
	// suspected reuse bug.
	NoPool bool
	// PoolPoison arms arena buffer poisoning (every recycled buffer is
	// filled with 0xDB before reuse), so any consumer holding a stale
	// reference reads deterministic garbage instead of silently correct
	// bytes. Diagnostic; the pooled-identity tests run sweeps poisoned to
	// prove no such consumer exists. Ignored with NoPool.
	PoolPoison bool
	// Ctx, when non-nil, arms cooperative cancellation: workers stop
	// claiming new trials once the context is done, the trial in flight is
	// interrupted at the scheduler's next poll window, and the sweep
	// returns the context error after draining the publications of the
	// trials that did complete — so a SIGINT-cancelled run still exports
	// partial manifests, features and check reports.
	Ctx context.Context
	// MaxRetries bounds how many times the supervisor re-runs a failed
	// trial (fresh scheduler/RNG/checker/analyzer each attempt) before
	// giving up: 0 (default) means one attempt, no retries. A
	// deterministic failure fails identically every attempt; retries exist
	// for host-side flakes and for proving the retry path itself.
	MaxRetries int
	// RetryBackoff is the wall-clock delay before the first retry,
	// doubling for each further one; 0 retries immediately. Wall-clock
	// only — it never touches virtual time or any deterministic output.
	RetryBackoff time.Duration
	// StepBudget, when > 0, arms a virtual-time watchdog on every trial
	// attempt (core.TrialConfig.StepBudget): a trial executing more than
	// this many scheduler events is killed with a simtime.BudgetError at
	// exactly that event count, identically on every host and worker
	// count.
	StepBudget uint64
	// Quarantine, when non-nil, arms degraded mode: a trial still dead
	// after its retries is recorded here (with a standalone repro command)
	// and replaced by a placeholder result instead of aborting the sweep.
	// Nil keeps the historical fail-fast behavior — except that panics now
	// surface as structured *TrialFailure errors rather than crashing.
	Quarantine *Quarantine
	// SuperviseLog, when non-nil, receives the supervisor's diagnostic
	// lines (per-attempt failure notices and panic stacks); nil writes to
	// stderr. Host-side diagnostics only — never part of any byte-identical
	// artifact (stacks carry goroutine IDs and scheduler-dependent frames).
	SuperviseLog io.Writer
	// ChaosTrial, when non-nil, deterministically sabotages chosen trials:
	// called with the flat trial index before every trial *attempt*, its
	// non-ChaosNone answers are injected as core.TrialConfig.Chaos. This
	// is the supervisor's own test harness (and the CI chaos lane) — the
	// same hook at any worker count sabotages the same trials. Consulting
	// per attempt lets a stateful hook model transient faults that a retry
	// recovers from; such a hook must be safe for concurrent use by sweep
	// workers (the cmds' -chaos hook is a pure map lookup).
	ChaosTrial func(flat int) core.ChaosMode
	// Experiment is the id of the experiment being run. Runners obtained
	// through Lookup set it; the supervisor stamps it on check
	// violations and quarantined failures so repro commands name it.
	Experiment string
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 100
	}
	return o
}

// Report is one experiment's rendered result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry the paper-vs-measured commentary and caveats.
	Notes []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the report as CSV (header row first) for plotting.
func (r *Report) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner produces one experiment report.
type Runner func(Options) (*Report, error)

// registry maps experiment ids to runners, in presentation order.
var registry = []struct {
	id     string
	title  string
	runner Runner
}{
	{"fig1", "Size estimation: serialized vs multiplexed transmissions", Fig1},
	{"fig2", "Request spacing eliminates multiplexing (attack overview)", Fig2},
	{"fig3", "Baseline HTTP/2 multiplexing of the quiz HTML", Fig3},
	{"table1", "Effect of jitter on HTTP/2 multiplexing (Table I)", Table1},
	{"fig4", "Jitter side-effect: retransmission storm & duplicate copies", Fig4},
	{"fig5", "Effect of bandwidth limitation (Fig. 5)", Fig5},
	{"fig6", "Targeted drops force a stream reset (§IV-D)", Fig6},
	{"table2", "Full attack prediction accuracy (Table II)", Table2},
	{"ablation", "Adversary stage ablation (§IV build-up)", Ablation},
	{"defense", "§VII defense: randomized emblem request order", Defense},
	{"pushdef", "§VII defense: server push for the emblems", PushDefense},
	{"partial", "§VII extension: partial-multiplexing inference", Partial},
	{"sensitivity", "Attack parameter sensitivity sweep", Sensitivity},
	{"crosstraffic", "Attack vs background cross-traffic", CrossTraffic},
	{"tcpablation", "Attack vs victim TCP generation", TCPAblation},
	{"padding", "Defense extension: random DATA-frame padding", Padding},
	{"h1base", "HTTP/1.1 baseline: everything serialized (§II)", H1Baseline},
	{"robustness", "Fault scenarios: open-loop vs adaptive attack driver", Robustness},
	{"fleetscale", "Fleet-scale shared bottleneck: one middlebox, N victims", FleetScale},
}

// IDs lists the experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Lookup returns the runner for an id.
func Lookup(id string) (Runner, bool) {
	for _, e := range registry {
		if e.id == id {
			return func(o Options) (*Report, error) {
				o.Experiment = id
				return e.runner(o)
			}, true
		}
	}
	return nil, false
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v) }

// sortedKeys is a tiny helper for deterministic map iteration in reports.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
