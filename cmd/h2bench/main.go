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
)

func main() {
	os.Exit(run())
}

func run() int {
	trials := flag.Int("trials", 100, "trials per configuration point")
	seed := flag.Int64("seed", 1, "base seed")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any setting")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	manifestPath := flag.String("manifest", "", "write a run manifest (options, per-experiment wall time, metrics snapshot) to this JSON file")
	quiet := flag.Bool("quiet", false, "suppress the stderr progress reporter")
	h := cliutil.Harness{Tool: "h2bench", TraceWhat: "the first trial's cross-layer trace"}
	h.Register(flag.CommandLine)
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
	// A manifest arms the sweep-wide metrics registry as a debug endpoint
	// does: every trial accumulates into it and the manifest records its
	// final snapshot.
	h.ForceRegistry = *manifestPath != ""
	opts := experiment.Options{Trials: *trials, BaseSeed: *seed, Workers: *parallel}
	if err := h.Arm(&opts); err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		return 2
	}
	// Trial supervision turns one bad trial into a degraded completion
	// instead of aborting the whole regeneration run, and SIGINT drains
	// cooperatively, so a partial manifest still gets written.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	opts.Ctx = ctx
	// Experiments derive per-variant seeds internally, so the repro replays
	// the owning experiment with the same options (cheap at low -trials);
	// the flat index pins which trial died. -chaos specs address flat
	// indices of every sub-sweep alike, so they carry over verbatim.
	opts.Quarantine.SetRepro(func(f experiment.TrialFailure) string {
		cmd := fmt.Sprintf("go run ./cmd/h2bench -trials %d -seed %d", *trials, *seed)
		if h.Chaos != "" {
			cmd += " -chaos " + h.Chaos
		}
		if f.Kind == experiment.FailTimeout {
			cmd += fmt.Sprintf(" -step-budget %d", h.StepBudget)
		}
		return fmt.Sprintf("%s %s  # failed trial: seed %d, flat index %d", cmd, f.Experiment, f.Seed, f.Trial)
	})
	// Likewise a violation's repro replays the whole experiment with
	// checks armed rather than guessing the variant arm.
	repro := fmt.Sprintf("go run ./cmd/h2bench -check -trials %d -seed %d", *trials, *seed)
	opts.Check.SetRepro(func(v check.Violation) string {
		return fmt.Sprintf("%s %s  # violating trial: seed %d, flat index %d", repro, v.Experiment, v.TrialSeed, v.TrialIndex)
	})
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
				// Cooperative drain: stop starting experiments; Finish still
				// flushes every artifact accumulated so far.
				interrupted = true
				opts.Progress.Done()
				fmt.Fprintf(os.Stderr, "h2bench: interrupted during %s\n", id)
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
	return h.Finish(interrupted, func() error {
		if manifest == nil {
			return nil
		}
		manifest.Finish(opts.Metrics)
		manifest.FinishPerf(opts.Perf)
		if h.Features || h.FeaturesOut != "" {
			manifest.FinishFeatures(opts.Features, h.FeaturesOut)
		}
		manifest.FinishQuarantine(opts.Quarantine)
		if err := manifest.WriteFile(*manifestPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "h2bench: wrote run manifest (%d experiments%s) to %s\n",
			len(manifest.Runs), map[bool]string{true: ", partial"}[interrupted], *manifestPath)
		return nil
	})
}
