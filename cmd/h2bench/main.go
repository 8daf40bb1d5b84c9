// Command h2bench regenerates the paper's tables and figures from the
// simulated testbed.
//
// Usage:
//
//	h2bench [-trials N] [-seed S] [-parallel W] all
//	h2bench [-trials N] [-seed S] table1 fig5 table2 …
//	h2bench [-trace out.json] [-trace-format chrome|jsonl|summary] table2
//	h2bench [-manifest run.json] [-debug-addr :9090] [-quiet] all
//	h2bench [-features] [-features-out features.csv] table2
//	h2bench [-perf] [-perf-out perf.json] [-cpuprofile cpu.pprof] [-memprofile heap.pprof] all
//	h2bench -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"h2privacy/internal/check"
	"h2privacy/internal/cliutil"
	"h2privacy/internal/experiment"
	"h2privacy/internal/obs"
	"h2privacy/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	trials := flag.Int("trials", 100, "trials per configuration point")
	seed := flag.Int64("seed", 1, "base seed")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any setting")
	noPool := flag.Bool("no-pool", false, "disable per-worker trial buffer recycling (diagnostic; output is byte-identical either way)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	manifestPath := flag.String("manifest", "", "write a run manifest (options, per-experiment wall time, metrics snapshot) to this JSON file")
	quiet := flag.Bool("quiet", false, "suppress the stderr progress reporter")
	var tf cliutil.TraceFlags
	tf.RegisterTrace(flag.CommandLine, "the first trial's cross-layer trace")
	var df cliutil.DebugFlags
	df.RegisterDebug(flag.CommandLine)
	var cf cliutil.CheckFlags
	cf.RegisterCheck(flag.CommandLine)
	var pf cliutil.PerfFlags
	pf.RegisterPerf(flag.CommandLine)
	var ffl cliutil.FeatureFlags
	ffl.RegisterFeatures(flag.CommandLine)
	var sf cliutil.SuperviseFlags
	sf.RegisterSupervise(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: h2bench [flags] all|<experiment-id>...\nexperiments: %s\n", strings.Join(experiment.IDs(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(experiment.IDs(), "\n"))
		return 0
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return 2
	}
	opts := experiment.Options{Trials: *trials, BaseSeed: *seed, Workers: *parallel, NoPool: *noPool}
	// Trial supervision: watchdogs, retry/quarantine (degraded completion
	// instead of aborting the whole regeneration run on one bad trial),
	// and cooperative SIGINT drain — a partial manifest still gets written.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	opts.Ctx = ctx
	quar, err := sf.Apply(&opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 2
	}
	// Experiments derive per-variant seeds internally, so the repro replays
	// the owning experiment with the same options (cheap at low -trials);
	// the flat index pins which trial died. -chaos specs address flat
	// indices of every sub-sweep alike, so they carry over verbatim.
	quar.SetRepro(func(f experiment.TrialFailure) string {
		cmd := fmt.Sprintf("go run ./cmd/h2bench -trials %d -seed %d", *trials, *seed)
		if sf.Chaos != "" {
			cmd += " -chaos " + sf.Chaos
		}
		if f.Kind == experiment.FailTimeout {
			cmd += fmt.Sprintf(" -step-budget %d", sf.StepBudget)
		}
		return fmt.Sprintf("%s %s  # failed trial: seed %d, flat index %d", cmd, f.Experiment, f.Seed, f.Trial)
	})
	rec := cf.NewRecorder()
	if rec != nil {
		// An experiment derives per-variant seeds internally, so the repro
		// command replays the whole (cheap at -trials 1..few) experiment
		// with checks armed rather than guessing the variant arm.
		repro := fmt.Sprintf("go run ./cmd/h2bench -check -trials %d -seed %d", *trials, *seed)
		rec.SetRepro(func(v check.Violation) string {
			return fmt.Sprintf("%s %s  # violating trial: seed %d, flat index %d", repro, v.Experiment, v.TrialSeed, v.TrialIndex)
		})
		opts.Check = rec
	}
	tracer, err := tf.NewTracer(trace.Config{Concurrent: df.Armed()}, df.Armed())
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 2
	}
	opts.Trace = tracer
	// A manifest or a debug endpoint arms the sweep-wide metrics registry:
	// every trial accumulates into it, /metrics serves it live, and the
	// manifest records its final snapshot.
	if *manifestPath != "" || df.Armed() {
		opts.Metrics = obs.NewRegistry()
		obs.PublishTrace(opts.Metrics, tracer)
	}
	// Any perf flag arms per-stage cost attribution; with a registry, the
	// stage histograms are also scrapeable live on /metrics.
	col := pf.NewCollector()
	opts.Perf = col
	col.PublishTo(opts.Metrics)
	// -features/-features-out arm flowseq analytics on every trial; with
	// -debug-addr the collector is forced so /debug/flows serves live burst
	// tables mid-sweep and the flow_* families land in the registry.
	fcol := ffl.NewCollector(df.Armed())
	opts.Features = fcol
	fcol.PublishTo(opts.Metrics)
	ds, err := df.Serve(opts.Metrics, tracer, fcol, os.Stderr, "h2bench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 1
	}
	if ds != nil {
		defer ds.Close()
	}
	if !*quiet {
		opts.Progress = experiment.NewProgress(os.Stderr)
	} else if *manifestPath != "" {
		// The manifest still needs trial counts; count without rendering.
		opts.Progress = experiment.NewProgress(nil)
	}
	var manifest *experiment.Manifest
	if *manifestPath != "" {
		manifest = experiment.NewManifest("h2bench", opts)
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiment.IDs()
	}
	if err := pf.StartProfiles(os.Stderr, "h2bench"); err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 1
	}
	interrupted := false
	for _, id := range args {
		runner, ok := experiment.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "h2bench: unknown experiment %q (try -list)\n", id)
			return 2
		}
		opts.Progress.Start(id, experiment.PlannedTrials(id, opts))
		opts.Perf.BeginExperiment(id)
		rep, err := runner(opts)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Cooperative drain: stop starting experiments, but still
				// flush every artifact accumulated so far (partial manifest,
				// features, check report) on the way out.
				interrupted = true
				opts.Progress.Done()
				fmt.Fprintf(os.Stderr, "h2bench: interrupted during %s — exporting partial artifacts\n", id)
				break
			}
			fmt.Fprintln(os.Stderr, "h2bench:", err)
			return 1
		}
		nTrials, wall := opts.Progress.Done()
		manifest.Record(id, rep.Title, nTrials, len(rep.Rows), wall)
		if *csvOut {
			fmt.Printf("# %s\n", rep.ID)
			if err := rep.RenderCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "h2bench:", err)
				return 1
			}
			fmt.Println()
		} else {
			rep.Render(os.Stdout)
		}
	}
	if err := pf.StopProfiles(os.Stderr, "h2bench"); err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 1
	}
	if err := pf.Report(col, os.Stderr, "h2bench"); err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 1
	}
	if err := tf.Export(opts.Trace, os.Stderr, "h2bench"); err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 1
	}
	if err := ffl.Export(fcol, os.Stderr, "h2bench"); err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 1
	}
	if manifest != nil {
		manifest.Finish(opts.Metrics)
		manifest.FinishPerf(col)
		if ffl.Armed() {
			manifest.FinishFeatures(fcol, ffl.OutPath)
		}
		manifest.FinishQuarantine(quar)
		if err := manifest.WriteFile(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "h2bench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "h2bench: wrote run manifest (%d experiments%s) to %s\n",
			len(manifest.Runs), map[bool]string{true: ", partial"}[interrupted], *manifestPath)
	}
	qn, err := sf.Report(quar, os.Stderr, "h2bench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 1
	}
	if n, err := cf.Report(rec, os.Stderr, "h2bench"); err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 1
	} else if n > 0 {
		return 1
	}
	if interrupted {
		return 130
	}
	return sf.Exit(qn)
}
