// Package cliutil factors the flag plumbing the repository's commands
// share: the -trace/-trace-format pair with its export-on-exit receipt,
// the -debug-addr observability endpoint (metrics + pprof + live trace
// download), and the -perf/-cpuprofile/-memprofile performance
// observatory. Commands register the flags on their FlagSet, then ask
// for a tracer / debug server / perf collector after flag.Parse;
// everything stays inert when the flags are unset.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/obs"
	"h2privacy/internal/perf"
	"h2privacy/internal/trace"
)

// TraceFlags holds the -trace / -trace-format pair.
type TraceFlags struct {
	Path   string
	Format string
}

// RegisterTrace adds -trace and -trace-format to fs. what describes the
// trace in the -trace flag's help text ("the trial's cross-layer trace").
func (tf *TraceFlags) RegisterTrace(fs *flag.FlagSet, what string) {
	fs.StringVar(&tf.Path, "trace", "", "export "+what+" to this file")
	fs.StringVar(&tf.Format, "trace-format", trace.FormatChrome,
		"trace export format: "+strings.Join(trace.Formats(), ", "))
}

// Armed reports whether -trace was given.
func (tf *TraceFlags) Armed() bool { return tf.Path != "" }

// NewTracer validates the format up front (so a typo fails before a long
// run, not at export time) and returns a tracer when -trace was given or
// force is set — commands force one when another consumer (a timeline, a
// debug endpoint) needs events regardless of export. Returns nil, nil
// when no tracer is wanted.
func (tf *TraceFlags) NewTracer(cfg trace.Config, force bool) (*trace.Tracer, error) {
	if !tf.Armed() && !force {
		return nil, nil
	}
	if !validFormat(tf.Format) {
		return nil, fmt.Errorf("unknown trace format %q (want %s)",
			tf.Format, strings.Join(trace.Formats(), ", "))
	}
	return trace.New(nil, cfg), nil
}

// NewWallTracer is NewTracer for wall-clock, goroutine-per-stream
// commands (h2serve): the tracer stamps real time and takes the mutex
// path.
func (tf *TraceFlags) NewWallTracer(force bool) (*trace.Tracer, error) {
	if !tf.Armed() && !force {
		return nil, nil
	}
	if !validFormat(tf.Format) {
		return nil, fmt.Errorf("unknown trace format %q (want %s)",
			tf.Format, strings.Join(trace.Formats(), ", "))
	}
	return trace.New(trace.WallClock(), trace.Config{Concurrent: true}), nil
}

// Export writes the trace to -trace's path in -trace-format and prints a
// receipt to logw ("tool: wrote N trace events ..."). A no-op when -trace
// was not given or the tracer is nil.
func (tf *TraceFlags) Export(tr *trace.Tracer, logw io.Writer, tool string) error {
	if !tf.Armed() || tr == nil {
		return nil
	}
	f, err := os.Create(tf.Path)
	if err != nil {
		return err
	}
	if err := tr.WriteFormat(f, tf.Format); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if logw != nil {
		fmt.Fprintf(logw, "%s: wrote %d trace events (%s) to %s\n",
			tool, tr.Len(), tf.Format, tf.Path)
	}
	return nil
}

func validFormat(format string) bool {
	for _, f := range trace.Formats() {
		if f == format {
			return true
		}
	}
	return false
}

// CheckFlags holds the -check / -check-report pair.
type CheckFlags struct {
	Enabled    bool
	ReportPath string
}

// RegisterCheck adds -check and -check-report to fs.
func (cf *CheckFlags) RegisterCheck(fs *flag.FlagSet) {
	fs.BoolVar(&cf.Enabled, "check", false,
		"arm runtime invariant checking on every layer of each trial (see internal/check)")
	fs.StringVar(&cf.ReportPath, "check-report", "",
		"with -check: also write the full violation report to this file")
}

// Armed reports whether -check was given.
func (cf *CheckFlags) Armed() bool { return cf.Enabled }

// NewRecorder returns a violation recorder when -check was given, else nil.
func (cf *CheckFlags) NewRecorder() *check.Recorder {
	if !cf.Armed() {
		return nil
	}
	return check.NewRecorder()
}

// Report prints the recorder's summary to logw, writes the full report to
// -check-report when set, and returns the total violation count — callers
// exit nonzero when it is. A nil recorder (unarmed) reports zero.
func (cf *CheckFlags) Report(rec *check.Recorder, logw io.Writer, tool string) (int, error) {
	if rec == nil {
		return 0, nil
	}
	if logw != nil {
		fmt.Fprintf(logw, "%s: %s\n", tool, strings.TrimRight(rec.Report(), "\n"))
	}
	if cf.ReportPath != "" {
		f, err := os.Create(cf.ReportPath)
		if err != nil {
			return rec.Total(), err
		}
		rec.WriteReport(f)
		if err := f.Close(); err != nil {
			return rec.Total(), err
		}
		if logw != nil {
			fmt.Fprintf(logw, "%s: wrote check report to %s\n", tool, cf.ReportPath)
		}
	}
	return rec.Total(), nil
}

// PerfFlags holds the performance-observatory flag set: -perf (per-stage
// cost attribution), -perf-out (write the report as JSON), -cpuprofile
// and -memprofile (pprof captures). Any of the four arms the collector —
// profiling without attribution would lose the stage labels, and a
// report path without -perf would write an empty report.
type PerfFlags struct {
	Enabled bool
	OutPath string
	CPUPath string
	MemPath string

	cpuFile *os.File
}

// RegisterPerf adds -perf, -perf-out, -cpuprofile and -memprofile to fs.
func (pf *PerfFlags) RegisterPerf(fs *flag.FlagSet) {
	fs.BoolVar(&pf.Enabled, "perf", false,
		"attribute host-side cost per trial stage (build/run/capture/check/publish) and print the hot-stage table on exit")
	fs.StringVar(&pf.OutPath, "perf-out", "",
		"write the perf report (stage table, worker utilization) as JSON to this file; implies -perf")
	fs.StringVar(&pf.CPUPath, "cpuprofile", "",
		"write a CPU profile (pprof, stage-labeled) to this file; implies -perf")
	fs.StringVar(&pf.MemPath, "memprofile", "",
		"write a heap profile (pprof, post-GC) to this file on exit; implies -perf")
}

// Armed reports whether any perf flag was given.
func (pf *PerfFlags) Armed() bool {
	return pf.Enabled || pf.OutPath != "" || pf.CPUPath != "" || pf.MemPath != ""
}

// NewCollector returns a perf collector when any perf flag was given,
// else nil (the zero-cost disabled path — see internal/perf). When a CPU
// profile is being captured, goroutine stage labels are armed too, so
// profile samples carry experiment/stage dimensions; without a profile
// the labels would cost allocations for nothing and stay off.
func (pf *PerfFlags) NewCollector() *perf.Collector {
	if !pf.Armed() {
		return nil
	}
	c := perf.NewCollector()
	if pf.CPUPath != "" {
		c.EnableLabels()
	}
	return c
}

// StartProfiles begins the CPU profile when -cpuprofile was given. Call
// before the workload; pair with StopProfiles after it.
func (pf *PerfFlags) StartProfiles(logw io.Writer, tool string) error {
	if pf.CPUPath == "" {
		return nil
	}
	f, err := os.Create(pf.CPUPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	pf.cpuFile = f
	return nil
}

// StopProfiles stops the CPU profile and writes the heap profile (after a
// forced GC, so the capture shows live heap rather than garbage),
// printing a receipt per file. Safe to call when nothing was started.
func (pf *PerfFlags) StopProfiles(logw io.Writer, tool string) error {
	if pf.cpuFile != nil {
		pprof.StopCPUProfile()
		err := pf.cpuFile.Close()
		pf.cpuFile = nil
		if err != nil {
			return err
		}
		if logw != nil {
			fmt.Fprintf(logw, "%s: wrote CPU profile to %s\n", tool, pf.CPUPath)
		}
	}
	if pf.MemPath != "" {
		f, err := os.Create(pf.MemPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if logw != nil {
			fmt.Fprintf(logw, "%s: wrote heap profile to %s\n", tool, pf.MemPath)
		}
	}
	return nil
}

// Report prints the collector's hot-stage table to logw and, when
// -perf-out was given, writes the full report as JSON with a receipt. A
// nil collector (unarmed) reports nothing.
func (pf *PerfFlags) Report(c *perf.Collector, logw io.Writer, tool string) error {
	if c == nil {
		return nil
	}
	rep := c.Report()
	if logw != nil {
		rep.WriteText(logw, 0)
	}
	if pf.OutPath != "" {
		if err := rep.WriteFile(pf.OutPath); err != nil {
			return err
		}
		if logw != nil {
			fmt.Fprintf(logw, "%s: wrote perf report to %s\n", tool, pf.OutPath)
		}
	}
	return nil
}

// FeatureFlags holds the -features / -features-out pair: the flowseq
// event-sequence analytics (per-stream timelines, burst tables, size/gap
// features, clean-slate spans).
type FeatureFlags struct {
	Enabled bool
	OutPath string
}

// RegisterFeatures adds -features and -features-out to fs.
func (ff *FeatureFlags) RegisterFeatures(fs *flag.FlagSet) {
	fs.BoolVar(&ff.Enabled, "features", false,
		"extract per-stream flow features (timelines, burst tables, clean-slate spans) and print them on exit")
	fs.StringVar(&ff.OutPath, "features-out", "",
		"write the feature rows to this file (.csv → stream CSV, else JSONL with stream/burst/span tables); implies -features extraction")
}

// Armed reports whether either feature flag was given.
func (ff *FeatureFlags) Armed() bool { return ff.Enabled || ff.OutPath != "" }

// NewCollector returns a flowseq collector when a feature flag was given or
// force is set — commands force one when -debug-addr is up, so
// /debug/flows serves live burst tables even without an export. Nil when
// extraction is unwanted (the zero-cost disabled path: every downstream
// analyzer stays nil). The collector's receipt is published as the
// "features" expvar on /debug/vars.
func (ff *FeatureFlags) NewCollector(force bool) *flowseq.Collector {
	if !ff.Armed() && !force {
		return nil
	}
	col := flowseq.NewCollector()
	out := ff.OutPath
	obs.PublishFeaturesVar(func() any { return col.Receipt(out) })
	return col
}

// Export prints the burst tables to logw when -features was given and
// writes the feature rows to -features-out when set (.csv → the stream
// CSV, anything else → the three-table JSONL), with a receipt line. A nil
// collector is a no-op.
func (ff *FeatureFlags) Export(col *flowseq.Collector, logw io.Writer, tool string) error {
	if col == nil {
		return nil
	}
	if ff.Enabled && logw != nil {
		if err := col.WriteTable(logw); err != nil {
			return err
		}
	}
	if ff.OutPath == "" {
		return nil
	}
	format := flowseq.FormatJSONL
	if strings.HasSuffix(ff.OutPath, ".csv") {
		format = flowseq.FormatCSV
	}
	f, err := os.Create(ff.OutPath)
	if err != nil {
		return err
	}
	if err := col.WriteFlows(f, format); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if logw != nil {
		r := col.Receipt(ff.OutPath)
		fmt.Fprintf(logw, "%s: wrote %d stream / %d burst / %d span feature rows (schema %d, %s) to %s\n",
			tool, r.StreamRows, r.BurstRows, r.SpanRows, r.Schema, format, ff.OutPath)
	}
	return nil
}

// DefaultStepBudget is the per-trial virtual-time watchdog default: a
// full attack trial executes ~12k scheduler events, so five million is
// ~400x headroom for the attack itself while a chaos-hang trial burns
// through it in a fraction of a second. Background load legitimately
// costs far more (crosstraffic at 300 Mbps fires ~7.5M events per
// trial), so experiment.CrossTraffic widens the budget by its measured
// event rate.
const DefaultStepBudget = 5_000_000

// SuperviseFlags holds the sweep supervision flag group: retry bounds,
// per-trial watchdogs, deterministic fault injection, the degraded-mode
// exit policy and the quarantine artifact path. Registered alongside the
// Check/Perf/Feature groups so all sweep-capable commands stay
// consistent.
type SuperviseFlags struct {
	MaxRetries    int
	TrialDeadline time.Duration
	StepBudget    uint64
	Chaos         string
	Strict        bool
	QuarantineOut string
}

// RegisterSupervise adds -max-retries, -trial-deadline, -step-budget,
// -chaos, -strict and -quarantine-out to fs.
func (sf *SuperviseFlags) RegisterSupervise(fs *flag.FlagSet) {
	fs.IntVar(&sf.MaxRetries, "max-retries", 1,
		"re-run a failed trial this many times (fresh state each attempt, escalating backoff) before quarantining it")
	fs.DurationVar(&sf.TrialDeadline, "trial-deadline", 0,
		"wall-clock watchdog per trial attempt (0 disables); nondeterministic backstop — prefer -step-budget for reproducible kills")
	fs.Uint64Var(&sf.StepBudget, "step-budget", DefaultStepBudget,
		"virtual-time watchdog: kill a trial attempt after this many scheduler events (deterministic; 0 disables)")
	fs.StringVar(&sf.Chaos, "chaos", "",
		"deterministically sabotage trials for supervisor testing: comma list of mode:flatIndex with modes panic|hang, e.g. panic:3,hang:11")
	fs.BoolVar(&sf.Strict, "strict", false,
		"exit non-zero when the sweep completes degraded (any trial quarantined)")
	fs.StringVar(&sf.QuarantineOut, "quarantine-out", "",
		"write the machine-readable quarantine file (failed trials with repro commands) to this path")
}

// ParseChaosSpec parses the -chaos spec ("panic:3,hang:11") into the
// experiment.Options.ChaosTrial hook: a map from flat trial index to the
// injected core.ChaosMode. Empty spec → nil hook (no injection).
func ParseChaosSpec(spec string) (func(int) core.ChaosMode, error) {
	if spec == "" {
		return nil, nil
	}
	m := make(map[int]core.ChaosMode)
	for _, part := range strings.Split(spec, ",") {
		mode, idxStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad -chaos entry %q (want mode:trialIndex)", part)
		}
		cm, err := core.ParseChaosMode(mode)
		if err != nil {
			return nil, err
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("bad -chaos trial index %q in %q", idxStr, part)
		}
		m[idx] = cm
	}
	return func(flat int) core.ChaosMode { return m[flat] }, nil
}

// Apply threads the supervision flags into opts — retry bounds,
// watchdogs, chaos injection — and arms degraded mode with a fresh
// Quarantine collector, published as the "quarantine" expvar for
// /debug/vars. Returns the collector for Report after the sweep.
func (sf *SuperviseFlags) Apply(opts *experiment.Options) (*experiment.Quarantine, error) {
	chaos, err := ParseChaosSpec(sf.Chaos)
	if err != nil {
		return nil, err
	}
	q := experiment.NewQuarantine()
	obs.PublishQuarantineVar(func() any { return q.Receipt() })
	opts.MaxRetries = sf.MaxRetries
	opts.RetryBackoff = 100 * time.Millisecond
	opts.TrialDeadline = sf.TrialDeadline
	opts.StepBudget = sf.StepBudget
	opts.Quarantine = q
	opts.ChaosTrial = chaos
	return q, nil
}

// Report prints the degraded-mode summary (each quarantined trial with
// its standalone repro command) and writes the -quarantine-out artifact —
// always when the flag is set, even with zero failures, so CI can assert
// the file's presence and content unconditionally. Returns the
// quarantined count; with -strict a non-zero count should exit non-zero
// (Exit folds that policy).
func (sf *SuperviseFlags) Report(q *experiment.Quarantine, logw io.Writer, tool string) (int, error) {
	n := q.Len()
	if n > 0 && logw != nil {
		fmt.Fprintf(logw, "%s: sweep DEGRADED: %d trial(s) quarantined after exhausting retries\n", tool, n)
		for _, f := range q.Failures() {
			fmt.Fprintf(logw, "  trial %d (seed %d) [%s] after %d attempt(s): %s\n",
				f.Trial, f.Seed, f.Kind, f.Attempts, f.Err)
			fmt.Fprintf(logw, "      repro: %s\n", f.Repro)
		}
	}
	if sf.QuarantineOut != "" {
		if err := q.WriteFile(sf.QuarantineOut, tool); err != nil {
			return n, err
		}
		if logw != nil {
			fmt.Fprintf(logw, "%s: wrote quarantine file (%d entries) to %s\n", tool, n, sf.QuarantineOut)
		}
	}
	return n, nil
}

// Exit resolves the degraded-mode exit policy: 0 when nothing was
// quarantined or degraded completion is tolerated (the default — a
// degraded sweep that salvaged its other trials is a success), 1 under
// -strict.
func (sf *SuperviseFlags) Exit(quarantined int) int {
	if quarantined > 0 && sf.Strict {
		return 1
	}
	return 0
}

// SignalContext returns a context cancelled on SIGINT/SIGTERM, for
// experiment.Options.Ctx: the first signal starts the cooperative drain
// (workers stop claiming trials, the trial in flight is interrupted at
// the scheduler's next poll window, partial artifacts export on the way
// out); a second signal kills the process through the restored default
// handler. Callers defer stop().
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// DebugFlags holds -debug-addr.
type DebugFlags struct {
	Addr string
}

// RegisterDebug adds -debug-addr to fs.
func (df *DebugFlags) RegisterDebug(fs *flag.FlagSet) {
	fs.StringVar(&df.Addr, "debug-addr", "",
		"serve /metrics, /healthz, /debug/pprof, /debug/trace and /debug/flows on this address (e.g. :9090; empty disables)")
}

// Armed reports whether -debug-addr was given.
func (df *DebugFlags) Armed() bool { return df.Addr != "" }

// Serve starts the debug HTTP server on -debug-addr with the given
// registry, tracer and flow source (nil flows → /debug/flows 404s with a
// hint), printing the resolved endpoint to logw. Returns nil, nil when the
// flag is unset; the caller Closes the server on exit.
func (df *DebugFlags) Serve(reg *obs.Registry, tr *trace.Tracer, flows *flowseq.Collector, logw io.Writer, tool string) (*obs.DebugServer, error) {
	if !df.Armed() {
		return nil, nil
	}
	ds := &obs.DebugServer{Registry: reg, Tracer: tr}
	if flows != nil {
		ds.Flows = flows
	}
	addr, err := ds.Start(df.Addr)
	if err != nil {
		return nil, err
	}
	if logw != nil {
		fmt.Fprintf(logw, "%s: debug endpoints on http://%s/ (/metrics /healthz /debug/pprof /debug/trace /debug/flows)\n",
			tool, addr)
	}
	return ds, nil
}
