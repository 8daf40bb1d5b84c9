// Command perfbench is the repository benchmark. It runs one named
// workload of the simulator for a host-time budget, checks the outputs,
// and prints its metrics, the last line being one JSON object:
//
//	perfbench --workload attack|fleet|paper --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics (host time per trial,
// page-load throughput, report regeneration time, allocations, memory and
// set-up time). With --trace 1 it replays the same seeds under a CPU
// profile, the perf stage collector and the layers' public counters, and
// reports the per-layer metrics instead. Either way a replay of the same
// seeds with those instruments armed must reproduce every trial's outcome
// digest. See README.md for the workloads and the metric definitions.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit, in the order BENCHMARK.json lists them. Every workload reports the
// whole list of its mode; a layer a workload does not exercise, or whose
// counters it cannot reach through public accessors, reads 0 (README.md
// marks which).
var endToEnd = []metricDef{
	{"trial_ms_p50", "ms"}, {"trial_ms_p90", "ms"}, {"pageloads_per_s", "1/s"},
	{"regen_s", "s"}, {"allocs_per_trial", "count"}, {"mem_peak_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".cpu_pct", "%"}, metricDef{l + ".cpu_ms_per_trial", "ms"})
	}
	out = append(out,
		metricDef{"core.build_ms", "ms"}, metricDef{"core.run_ms", "ms"},
		metricDef{"core.capture_ms", "ms"}, metricDef{"core.check_ms", "ms"},
		metricDef{"predict.bursts_us", "us"}, metricDef{"predict.infer_us", "us"},
		metricDef{"metrics.dom_us", "us"}, metricDef{"simtime.ns_per_event", "ns"},
		metricDef{"experiment.worker_busy_pct", "%"},
	)
	for _, id := range paperIDs {
		out = append(out, metricDef{"experiment." + id + "_s", "s"})
	}
	for _, name := range []string{
		"simtime.events_per_trial", "netsim.packets_per_trial", "netsim.drops_per_trial",
		"tcpsim.segments_per_trial", "tcpsim.retransmits_per_trial", "tcpsim.rto_per_trial",
		"h2.frames_per_trial", "capture.records_per_trial", "predict.bursts_per_trial",
		"adversary.dropped_pkts_per_trial", "adversary.attempts_per_trial",
		"endpoint.resets_per_trial", "endpoint.gets_per_trial",
		"netsim.agg_forwarded_per_trial", "netsim.agg_queue_drops_per_trial",
		"adversary.interventions_per_trial",
	} {
		out = append(out, metricDef{name, "count"})
	}
	out = append(out,
		metricDef{"pool.hit_pct", "%"}, metricDef{"endpoint.decoy_completed_pct", "%"},
		metricDef{"check.violations", "count"}, metricDef{"runtime.gc_cycles_per_trial", "count"},
		metricDef{"runtime.gc_cpu_pct", "%"}, metricDef{"trace_overhead_pct", "%"},
		metricDef{"identified_pct", "%"}, metricDef{"target_selected_pct", "%"},
		metricDef{"failed_pct", "%"},
	)
	return out
}()

type metricDef struct{ name, unit string }

// report accumulates one run's metrics, outcome lines and failed checks.
type report struct {
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the JSON
	problems  []string // failed correctness checks
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// workload is one named benchmark input set.
type workload interface {
	// warmUp runs one unit of the workload; set-up time is process start
	// plus this call, and the measuring process discards its timing.
	warmUp(seed int64) error
	// endToEnd runs the untraced measurement for budget and records the
	// end-to-end metrics except set-up time.
	endToEnd(seed int64, budget time.Duration, r *report) error
	// traced runs the untraced phase for half the budget, replays the
	// same seeds with every instrument armed, and records the per-layer
	// metrics.
	traced(seed int64, budget time.Duration, r *report) error
}

var workloads = map[string]workload{
	"attack": &trialWorkload{reportID: "table2", reportTrials: 8},
	"fleet":  &trialWorkload{fleetN: 1000, reportID: "fleetscale", reportTrials: 1},
	"paper":  paperWorkload{},
}

// Set-up is timed in fresh child processes, at least minSetupRuns and at
// most maxSetupRuns of them, until setupBudget has passed; setup_s is
// their median. A cold process's first trial varies by about ±30% from
// run to run, so the short workloads take many samples.
const (
	minSetupRuns = 5
	maxSetupRuns = 15
	setupBudget  = 2 * time.Second
)

func main() { os.Exit(run()) }

func run() int {
	// Everything runs on one P. On a shared host the other CPU's speed
	// swings with its neighbours' load, which spread two-CPU timings by
	// 20-35% across runs. On one P the garbage collector shares the trial's
	// CPU, and the sweep engine's nproc workers still fan out and publish
	// in order, interleaved.
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "workload: attack, fleet or paper")
	seed := flag.Int64("seed", 1, "base seed; trial i uses seed+i")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	traceMode := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	setupChild := flag.Bool("setup-child", false, "run one warm-up unit and exit (set-up timing)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload attack|fleet|paper, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	if *setupChild {
		if err := w.warmUp(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: warm-up:", err)
			return 1
		}
		return 0
	}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Println(hostLine(*seed))
	r := newReport()
	var err error
	if *traceMode == 0 {
		err = measureEndToEnd(w, *name, *seed, budget, r)
	} else {
		err = measureTraced(w, *seed, budget, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *traceMode == 1 {
		defs = perLayer
	}
	return emit(*name, defs, r)
}

func measureEndToEnd(w workload, name string, seed int64, budget time.Duration, r *report) error {
	setup, err := measureSetup(name, seed)
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")
	if err := w.warmUp(seed); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return w.endToEnd(seed, budget, r)
}

// setMemPeak records the process's peak runtime Sys so far. Sys only
// grows, so its current value is the peak.
func setMemPeak(r *report) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("mem_peak_mb", float64(ms.Sys)/(1<<20), "MiB")
}

func measureTraced(w workload, seed int64, budget time.Duration, r *report) error {
	if err := w.warmUp(seed); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return w.traced(seed, budget, r)
}

// measureSetup times fresh processes that each start and run one warm-up
// unit, and returns the median in seconds.
func measureSetup(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	var secs []float64
	begin := time.Now()
	for i := 0; i < minSetupRuns || (i < maxSetupRuns && time.Since(begin) < setupBudget); i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup run %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// emit prints the notes, every metric of defs with its unit, the failed
// checks, and the JSON result line. Metrics the workload did not set read
// 0. It returns the exit code: 1 when any correctness check failed.
func emit(name string, defs []metricDef, r *report) int {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			m = metric{Value: 0, Unit: d.unit}
		}
		out[d.name] = m
		fmt.Printf("%s %-34s %14.4f %s\n", name, d.name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("%s %s\n", name, n)
	}
	for _, p := range r.problems {
		fmt.Printf("%s CHECK FAILED: %s\n", name, p)
	}
	correct := len(r.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// hostLine describes the host and the code so a record from another
// machine or commit is recognisable.
func hostLine(seed int64) string {
	return fmt.Sprintf("host: go=%s gomaxprocs=%d nproc=%d cpu=%q seed=%d commit=%s source=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), seed, gitCommit(), sourceDigest())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the working directory's .git, or reports
// "none" for a checkout without git metadata (sourceDigest then
// identifies the code).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes every Go source and go.mod file under the working
// directory (skipping dot-directories such as the build output), so two
// records of the same code carry the same digest.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// runtimeCounters samples the runtime's GC cycle count and CPU-time
// classes, for the traced phase's GC metrics.
type runtimeCounters struct{ gcCycles, gcCPU, totalCPU, idleCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	value := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{value(s[0].Value), value(s[1].Value), value(s[2].Value), value(s[3].Value)}
}

// setGC records the GC metrics of a traced phase between two samples; the
// GC's CPU share is of the CPU time the process was busy, as the profile's
// shares are.
func setGC(r *report, before, after runtimeCounters, trials float64) {
	busy := (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	r.set("runtime.gc_cycles_per_trial", (after.gcCycles-before.gcCycles)/trials, "count")
	r.set("runtime.gc_cpu_pct", pct(after.gcCPU-before.gcCPU, busy), "%")
}

// setProfile records every layer's CPU share and CPU time per trial from
// a traced phase's profile, and fails the run when more than maxOther
// percent stays unattributed.
func setProfile(r *report, samples []sample, trials float64) {
	byLayer := attribute(samples, retimeFrame)
	sh := shares(byLayer)
	for _, l := range layers {
		r.set(l+".cpu_pct", sh[l], "%")
		r.set(l+".cpu_ms_per_trial", float64(byLayer[l])/1e6/trials, "ms")
	}
	r.check(len(samples) > 0, "the traced phase's CPU profile holds no samples")
	r.check(sh[otherLayer] <= maxOther, "profile attribution left %.1f%% in other (limit %.0f%%)", sh[otherLayer], maxOther)
}

const maxOther = 10.0
