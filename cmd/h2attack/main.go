// Command h2attack runs the paper's §V staged attack against the
// simulated survey site and prints a full trace of what the adversary
// observed and inferred.
//
//	h2attack [-seed N] [-jitter1 50ms] [-jitter3 80ms] [-drop 0.8] [-bw 800]
//	         [-scenario NAME] [-adaptive] [-trace out.json]
//	         [-trace-format chrome|jsonl|summary] [-timeline]
//	         [-features] [-features-out features.csv]
//	         [-debug-addr :9090] [-hold 30s]
//	         [-perf] [-perf-out perf.json] [-cpuprofile cpu.pprof] [-memprofile heap.pprof]
//	h2attack -trials 50 [-parallel W]   (aggregate success over seeds N..N+49)
//	h2attack -fleet 100 -budget 1       (shared-bottleneck fleet: pick the target out of 99 decoys)
//	h2attack -scenarios                 (list the fault-scenario catalog)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/capture"
	"h2privacy/internal/check"
	"h2privacy/internal/cliutil"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/instr"
	"h2privacy/internal/metrics"
	"h2privacy/internal/netsim"
	"h2privacy/internal/perf"
	"h2privacy/internal/website"
)

func main() {
	seed := flag.Int64("seed", 1, "trial seed (drives the volunteer's ranking too)")
	trials := flag.Int("trials", 1, "number of trials; >1 sweeps seeds N..N+trials-1 and prints an aggregate summary")
	parallel := flag.Int("parallel", 0, "worker pool for -trials >1 (0 = GOMAXPROCS, 1 = sequential)")
	jitter1 := flag.Duration("jitter1", 50*time.Millisecond, "phase-1 per-GET jitter")
	jitter3 := flag.Duration("jitter3", 80*time.Millisecond, "phase-3 per-GET jitter")
	drop := flag.Float64("drop", 0.8, "server→client drop rate during the reset phase")
	bw := flag.Float64("bw", 800, "throttle bandwidth in Mbps")
	scenario := flag.String("scenario", "", "inject a named fault scenario (see -scenarios)")
	listScenarios := flag.Bool("scenarios", false, "list the fault-scenario catalog and exit")
	adaptive := flag.Bool("adaptive", false, "arm the closed-loop driver: watchdogs, retry with escalation, heartbeat re-arm, graceful degradation")
	fleet := flag.Int("fleet", 1, "fleet size N: multiplex N client-server pairs (flow 0 is the target, the rest decoy page loads) over one shared bottleneck")
	budgetK := flag.Int("budget", 1, "with -fleet >1: the adversary's concurrent-interference budget K (0 observes but never touches a flow)")
	pcapPath := flag.String("pcap", "", "export the gateway's capture to this pcap file")
	timeline := flag.Bool("timeline", false, "print the merged event timeline")
	hold := flag.Duration("hold", 0, "keep the process (and -debug-addr endpoints) alive this long after the trial")
	h := cliutil.Harness{Tool: "h2attack", TraceWhat: "the trial's cross-layer trace", Receipts: os.Stdout}
	h.Register(flag.CommandLine)
	flag.Parse()

	if *listScenarios {
		fmt.Println("fault scenarios:")
		for _, sc := range netsim.Scenarios() {
			fmt.Printf("  %-14s %s\n", sc.Name, sc.Desc)
		}
		return
	}
	if *scenario != "" {
		if _, ok := netsim.LookupScenario(*scenario); !ok {
			fatal(fmt.Errorf("unknown scenario %q (have %s)", *scenario,
				strings.Join(netsim.ScenarioNames(), ", ")))
		}
	}

	plan := adversary.DefaultPlan()
	plan.Phase1Jitter = *jitter1
	plan.Phase3Jitter = *jitter3
	plan.DropRate = *drop
	plan.ThrottleBps = *bw * 1e6
	plan.Adaptive = *adaptive

	// knobs reconstructs the non-default attack parameters for repro
	// commands (check violations and quarantined trials alike).
	knobs := fmt.Sprintf(" -jitter1 %v -jitter3 %v -drop %v -bw %v", *jitter1, *jitter3, *drop, *bw)
	if *scenario != "" {
		knobs += " -scenario " + *scenario
	}
	if *adaptive {
		knobs += " -adaptive"
	}
	if *fleet > 1 {
		knobs += fmt.Sprintf(" -fleet %d -budget %d", *fleet, *budgetK)
	}

	// -fleet >1 switches every trial to the shared-bottleneck topology.
	var fleetCfg *core.FleetConfig
	if *fleet > 1 {
		fleetCfg = &core.FleetConfig{N: *fleet, Budget: *budgetK}
	}

	// -timeline forces the tracer: the trace-derived timeline carries the
	// TCP events the legacy logs never had.
	h.ForceTrace = *timeline
	h.Hold = *hold
	opts := experiment.Options{Trials: *trials, BaseSeed: *seed, Workers: *parallel}
	if err := h.Arm(&opts); err != nil {
		fatal(err)
	}
	opts.Perf.BeginExperiment("attack")
	// A violation's repro line names the exact single-trial rerun (the
	// sweep engine keys each trial's checker by that trial's own seed, so
	// -seed N reproduces it alone).
	opts.Check.SetRepro(func(v check.Violation) string {
		return fmt.Sprintf("go run ./cmd/h2attack -check -seed %d%s", v.TrialSeed, knobs)
	})

	// -trials >1 switches to sweep mode: the same attack plan against
	// seeds N..N+trials-1 over the experiment worker pool, reporting
	// aggregate success instead of one trial's play-by-play. -pcap and
	// -timeline are single-trial views and are ignored here; the tracer
	// still records trial 0.
	if *trials > 1 {
		if *pcapPath != "" || *timeline {
			fmt.Fprintln(os.Stderr, "h2attack: -pcap and -timeline apply to single trials; ignoring with -trials >1")
		}
		// First SIGINT starts the cooperative drain: workers stop claiming
		// trials, the trial in flight is interrupted at the scheduler's next
		// poll window, and Finish exports the completed trials' artifacts.
		// A second SIGINT force-kills through the restored default handler.
		ctx, stop := cliutil.SignalContext()
		defer stop()
		opts.Ctx = ctx
		interrupted, err := runSweep(opts, plan, *scenario, fleetCfg, knobs)
		if err != nil {
			fatal(err)
		}
		os.Exit(h.Finish(interrupted, nil))
	}

	// Single-trial path. The supervision flags apply here too, so a
	// quarantined trial's repro command (-trials 1 -seed S -chaos mode:0
	// -step-budget N) replays the exact failure standalone: the chaos
	// injection fires, the watchdog kills it, and the panic is loud and
	// uncaught — this path is for diagnosis, not salvage.
	var ck *check.Checker
	if opts.Check != nil {
		ck = check.New(*seed, 0, opts.Check)
	}
	var fl *flowseq.Analyzer
	if opts.Features != nil {
		fl = flowseq.New(0, opts.Features)
	}
	cfg := core.TrialConfig{Seed: *seed, Attack: &plan, Scenario: *scenario, Fleet: fleetCfg,
		Bundle:     instr.Bundle{Trace: opts.Trace, Check: ck, Flows: fl},
		StepBudget: opts.StepBudget}
	if opts.ChaosTrial != nil {
		cfg.Chaos = opts.ChaosTrial(0)
	}
	// A fleet trial reports selection and collateral instead of the
	// single-pair play-by-play that the pcap and timeline belong to.
	if fleetCfg != nil && (*pcapPath != "" || *timeline) {
		fmt.Fprintln(os.Stderr, "h2attack: -pcap and -timeline apply to single-pair trials; ignoring with -fleet >1")
	}
	pcap := *pcapPath != "" && fleetCfg == nil
	// The testbed is assembled here rather than by core.RunTrial because
	// the report reads it, so the build stage is bracketed by hand; Run
	// attributes the rest through cfg.Perf.
	pw := opts.Perf.Worker()
	tok := pw.BeginTrial()
	sp := pw.Start(perf.StageBuild)
	cfg.Perf = pw
	tb, err := core.NewTestbed(cfg)
	sp.Stop()
	if err != nil {
		fatal(err)
	}
	if pcap {
		tb.Monitor.EnablePacketLog()
	}
	res := tb.Run()
	sp = pw.Start(perf.StagePublish)
	core.PublishTrialMetrics(opts.Metrics, res)
	sp.Stop()
	pw.EndTrial(tok)
	pw.Close()
	if pcap {
		if err := writePcap(*pcapPath, tb); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d observed packets to %s\n\n", len(tb.Monitor.Packets()), *pcapPath)
	}
	os.Exit(h.Finish(false, func() error {
		if res.Fleet != nil {
			printFleet(res)
		} else {
			printTrial(tb, res, *scenario, *timeline)
		}
		return nil
	}))
}

// printTrial renders a single-pair trial's play-by-play: the attack
// phases, injected faults, what the gateway saw, the objects of interest,
// the timeline when asked for, and the verdict.
func printTrial(tb *core.Testbed, res *core.TrialResult, scenario string, timeline bool) {
	fmt.Println("== attack phases ==")
	for _, pc := range tb.Driver.PhaseLog {
		fmt.Printf("  %-12v %v\n", pc.Time.Round(time.Millisecond), pc.Phase)
	}

	if len(res.FaultLog) > 0 {
		fmt.Printf("\n== injected faults (%s) ==\n", scenario)
		for _, ft := range res.FaultLog {
			fmt.Printf("  %-12v %-13s %s\n", ft.At.Round(time.Millisecond), ft.Kind, ft.Detail)
		}
	}

	fmt.Println("\n== traffic observed at the gateway ==")
	fmt.Printf("  GET requests counted:      %d\n", res.GETs)
	fmt.Printf("  retransmitted segments:    %d (c→s %d, s→c %d)\n",
		res.MonitorRetransmits, res.RetransC2S, res.RetransS2C)
	fmt.Printf("  adversary drops:           %d packets\n", tb.Controller.Stats().DroppedPkts)
	fmt.Printf("  browser duplicate GETs:    %d, reset cycles: %d\n", res.AppRetries, res.Resets)

	fmt.Println("\n== objects of interest ==")
	fmt.Printf("  %-28s dom=%4.0f%%  identified=%-5t\n", "quiz HTML (9500 B)",
		res.BestDoM[website.TargetID]*100, res.Identified[website.TargetID])
	for k := 0; k < website.PartyCount; k++ {
		obj := res.DisplaySeq[k]
		fmt.Printf("  I%d %-25s dom=%4.0f%%  identified=%-5t  rank-correct=%t\n",
			k+1, strings.TrimPrefix(obj, "emblem-"),
			res.BestDoM[obj]*100, res.Identified[obj], res.SequenceRankCorrect(k))
	}

	if timeline {
		fmt.Println("\n== timeline ==")
		core.RenderTimeline(os.Stdout, tb.Timeline(res))
	}

	fmt.Println("\n== verdict ==")
	fmt.Printf("  attack outcome:   %s (%d drop attempt(s), %d heartbeat re-arm(s))\n",
		res.Outcome, res.AttackAttempts, tb.Driver.Rearms())
	fmt.Printf("  true ranking:     %s\n", seqString(res.DisplaySeq))
	fmt.Printf("  inferred ranking: %s\n", seqString(res.InferredSeq))
	if res.Broken {
		fmt.Printf("  page load broke: %s\n", res.BrokenReason)
	}
}

// runSweep is the -trials >1 path: opts.Trials same-plan trials over the
// sweep engine under trial supervision, aggregated exactly as table2
// aggregates (HTML identified, ranks correct, broken loads). It reports
// whether the sweep was interrupted (partial results).
func runSweep(opts experiment.Options, plan adversary.AttackPlan, scenario string, fleetCfg *core.FleetConfig, knobs string) (interrupted bool, err error) {
	n, seed := opts.Trials, opts.BaseSeed
	opts.Progress = experiment.NewProgress(os.Stderr)
	// A quarantined trial's repro replays it standalone: same seed and
	// attack knobs as a one-trial run, with the chaos injection remapped to
	// flat index 0 and — for watchdog kills — the same step budget, so the
	// replay dies as loudly as the original did.
	opts.Quarantine.SetRepro(func(f experiment.TrialFailure) string {
		cmd := fmt.Sprintf("go run ./cmd/h2attack -trials 1 -seed %d%s", f.Seed, knobs)
		if opts.ChaosTrial != nil {
			if m := opts.ChaosTrial(f.Trial); m != core.ChaosNone {
				cmd += fmt.Sprintf(" -chaos %s:0", m)
			}
		}
		if f.Kind == experiment.FailTimeout {
			cmd += fmt.Sprintf(" -step-budget %d", opts.StepBudget)
		}
		return cmd
	})
	opts.Progress.Start("attack", n)
	results, err := opts.Sweep(n, func(t int) core.TrialConfig {
		cfg := core.TrialConfig{Seed: seed + int64(t), Attack: &plan, Scenario: scenario}
		if fleetCfg != nil {
			fc := *fleetCfg
			cfg.Fleet = &fc
		}
		return cfg
	})
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return false, err
		}
		interrupted = true
	}
	opts.Progress.Done()
	var html, ranks, allRanks, broken metrics.Counter
	var resets metrics.Sample
	var targetSel metrics.Counter
	var fleetInterventions, decoyBroken, decoyResets int
	outcomes := make(map[adversary.Outcome]int)
	completed := 0
	for _, res := range results {
		if res == nil {
			// Trials an interrupted sweep never ran.
			continue
		}
		completed++
		if fo := res.Fleet; fo != nil {
			targetSel.Observe(fo.TargetSelected)
			fleetInterventions += fo.Interventions
			for _, d := range fo.Decoys {
				if d.Broken {
					decoyBroken++
				}
				decoyResets += d.Resets
			}
		}
		html.Observe(res.ObjectSuccess(website.TargetID))
		all := true
		for k := 0; k < website.PartyCount; k++ {
			ok := res.SequenceRankCorrect(k)
			ranks.Observe(ok)
			all = all && ok
		}
		allRanks.Observe(all)
		broken.Observe(res.Broken)
		resets.Add(float64(res.Resets))
		outcomes[res.Outcome]++
	}
	fmt.Printf("== attack sweep: %d trials, seeds %d..%d", n, seed, seed+int64(n)-1)
	if scenario != "" {
		fmt.Printf(", scenario %s", scenario)
	}
	fmt.Println(" ==")
	if interrupted {
		fmt.Printf("  INTERRUPTED: %d of %d trials completed; aggregates below are partial\n", completed, n)
	}
	if qn := opts.Quarantine.Len(); qn > 0 {
		fmt.Printf("  DEGRADED: %d trial(s) quarantined (counted as broken below); see repro commands in the quarantine report\n", qn)
	}
	if fleetCfg != nil {
		fmt.Printf("  fleet:                     N=%d budget=%d\n", fleetCfg.N, fleetCfg.Budget)
		fmt.Printf("  target selected:           %.0f%%\n", targetSel.Percent())
		fmt.Printf("  interventions/trial:       %.0f\n", float64(fleetInterventions)/float64(completed))
		fmt.Printf("  decoy broken / resets:     %d / %d\n", decoyBroken, decoyResets)
	}
	fmt.Printf("  quiz HTML identified:      %.0f%%\n", html.Percent())
	fmt.Printf("  emblem ranks correct:      %.0f%%\n", ranks.Percent())
	fmt.Printf("  full ranking recovered:    %.0f%%\n", allRanks.Percent())
	fmt.Printf("  broken page loads:         %.0f%%\n", broken.Percent())
	fmt.Printf("  mean reset cycles:         %.1f\n", resets.Mean())
	fmt.Print("  outcomes:                  ")
	var parts []string
	for _, o := range []adversary.Outcome{adversary.OutcomeCleanSlate, adversary.OutcomeRetryCleanSlate,
		adversary.OutcomeDegraded, adversary.OutcomeBroken} {
		if outcomes[o] > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", o, outcomes[o]))
		}
	}
	fmt.Println(strings.Join(parts, ", "))
	return interrupted, nil
}

// printFleet renders a fleet trial: who the middlebox picked out of the
// crowd, what it did to them, and what happened to everyone else.
func printFleet(res *core.TrialResult) {
	fo := res.Fleet
	fmt.Println("== fleet trial ==")
	fmt.Printf("  topology:          %d flows over one %s bottleneck, budget K=%d\n",
		fo.N, fo.Discipline, fo.Budget)
	fmt.Printf("  selected flows:    %v (target selected: %t, budget peak %d)\n",
		fo.Selected, fo.TargetSelected, fo.BudgetPeak)
	fmt.Printf("  interventions:     %d\n", fo.Interventions)
	fmt.Printf("  bottleneck c→s:    %d pkts / %d bytes (%d queue drops)\n",
		fo.AggC2S.Forwarded, fo.AggC2S.Bytes, fo.AggC2S.DroppedQueue)
	fmt.Printf("  bottleneck s→c:    %d pkts / %d bytes (%d queue drops)\n",
		fo.AggS2C.Forwarded, fo.AggS2C.Bytes, fo.AggS2C.DroppedQueue)

	var loads time.Duration
	var loaded, brokenN, resetsN, targeted int
	for _, d := range fo.Decoys {
		if d.LoadTime > 0 {
			loads += d.LoadTime
			loaded++
		}
		if d.Broken {
			brokenN++
		}
		resetsN += d.Resets
		if d.Targeted {
			targeted++
		}
	}
	fmt.Printf("  decoys:            %d loaded / %d broken / %d reset cycles / %d mis-targeted\n",
		loaded, brokenN, resetsN, targeted)
	if loaded > 0 {
		fmt.Printf("  mean decoy load:   %v\n", (loads / time.Duration(loaded)).Round(time.Millisecond))
	}

	fmt.Println("\n== target verdict ==")
	fmt.Printf("  attack outcome:   %s (%d drop attempt(s))\n", res.Outcome, res.AttackAttempts)
	fmt.Printf("  quiz HTML identified: %t\n", res.Identified[website.TargetID])
	fmt.Printf("  true ranking:     %s\n", seqString(res.DisplaySeq))
	fmt.Printf("  inferred ranking: %s\n", seqString(res.InferredSeq))
	if res.Broken {
		fmt.Printf("  page load broke: %s\n", res.BrokenReason)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "h2attack:", err)
	os.Exit(1)
}

func writePcap(path string, tb *core.Testbed) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return capture.WritePcap(f, tb.Monitor.Packets())
}

func seqString(ids []string) string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = strings.TrimPrefix(id, "emblem-")
	}
	return strings.Join(out, " > ")
}
