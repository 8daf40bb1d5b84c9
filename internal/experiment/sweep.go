package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"h2privacy/internal/core"
	"h2privacy/internal/perf"
	"h2privacy/internal/pool"
)

// This file is the parallel sweep engine. Trials are independent by
// construction — each one owns a private scheduler, RNG, and testbed and
// is bit-reproducible from its seed (DESIGN.md §1) — so a sweep is
// embarrassingly parallel. The engine fans trial bodies out over a bounded
// worker pool while keeping every observable output byte-identical to the
// sequential run:
//
//   - Results land in a slice indexed by trial number and are aggregated
//     by the runner after the sweep, in index order, never in completion
//     order.
//   - The cross-layer tracer is armed for trial 0 of the first sweep that
//     finds it empty — decided once, before fan-out, not raced by "first
//     trial to start" (trials run dark otherwise, exactly as before).
//   - Registry publication is deferred: trials run with DeferMetrics and
//     the engine publishes each TrialResult in index order once the sweep
//     completes, because histogram sums are order-sensitive float
//     additions and gauges are last-writer-wins. The adversary's live
//     intervention counters still stream in during trials; those are
//     integer atomics whose totals are order-independent, so a live
//     /metrics scrape keeps showing the sweep advance.
//   - The first error by trial index wins, regardless of which worker hit
//     an error first.
//
// Seed scheme: every experiment derives its trial seeds through seedFor,
// so that within one experiment no two sub-sweeps (jitter points,
// bandwidth points, defense on/off arms, ...) reuse a seed. Paired sweeps
// (Fig2, Fig6) are the deliberate exception: both arms of a pair run the
// same seed so the comparison is against the same volunteer, page plan
// and network noise.

// seedFor derives the seed for trial t of sub-sweep `variant` of one
// experiment: variants are strided by the sweep's per-variant trial count
// (after any experiment-specific cap), so seeds never collide within an
// experiment. Variant 0 reproduces the historical BaseSeed+t stream.
func seedFor(base int64, variant, trials, t int) int64 {
	return base + int64(variant)*int64(trials) + int64(t)
}

// workerCount resolves Options.Workers: 0 (the default) uses every core
// via GOMAXPROCS, 1 reproduces the sequential path, n caps the pool at n.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachTrial runs n independent trial bodies over the worker pool. It is
// the scaffolding under Sweep for runners that assemble bespoke testbeds
// (h1base) instead of going through core.RunTrial: run(t) must be
// self-contained (own scheduler and RNG, shared state only written at
// disjoint index t) and must tick o.Progress itself. The first error by
// trial index is returned; remaining workers stop picking up new trials
// once any trial fails.
func (o Options) ForEachTrial(n int, run func(t int) error) error {
	return o.forEachTrial(n, func(_ *perf.Worker, _ *pool.Arena, t int) error { return run(t) })
}

// workerArena builds one worker's trial-scoped buffer arena, or nil when
// pooling is disabled — the arena type is nil-safe, so a nil handle simply
// means every Bytes call falls back to make and every Put is dropped.
func (o Options) workerArena() *pool.Arena {
	if o.NoPool {
		return nil
	}
	a := pool.New()
	a.SetPoison(o.PoolPoison)
	return a
}

// forEachTrial is ForEachTrial with perf and pool plumbing: each pool
// goroutine (or the sequential loop) takes its own perf.Worker handle and
// its own pool.Arena, and every run call is bracketed for busy-time and
// queue-wait accounting. run receives both so core trials can attribute
// their stages and draw their buffers per worker — arenas are strictly
// worker-local, so recycling never crosses goroutines and needs no locks.
// The arena is Reset between trials (free lists survive — that is the
// point — only per-trial stats clear). With a nil o.Perf all perf handles
// are nil no-ops; with o.NoPool all arenas are nil no-ops.
func (o Options) forEachTrial(n int, run func(pw *perf.Worker, arena *pool.Arena, t int) error) error {
	workers := o.workerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		pw := o.Perf.Worker()
		defer pw.Close()
		arena := o.workerArena()
		for t := 0; t < n; t++ {
			// Cooperative cancellation: stop claiming trials once the
			// context is done. The trial in flight (if any) was already
			// interrupted by the scheduler's poll hook.
			if o.Ctx != nil && o.Ctx.Err() != nil {
				return o.Ctx.Err()
			}
			arena.Reset()
			tok := pw.BeginTrial()
			err := run(pw, arena, t)
			pw.EndTrial(tok)
			if err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64 // next unclaimed trial index
		failed atomic.Bool  // fail-fast: stop claiming new trials
		mu     sync.Mutex
		errT   = n // lowest failing trial index
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pw := o.Perf.Worker()
			defer pw.Close()
			arena := o.workerArena()
			for {
				t := int(next.Add(1)) - 1
				if t >= n || failed.Load() {
					return
				}
				if o.Ctx != nil && o.Ctx.Err() != nil {
					// Cancellation drains like a failure at this worker's
					// current index: lowest index wins, so every worker
					// converging here yields one deterministic context error.
					failed.Store(true)
					mu.Lock()
					if t < errT {
						errT, first = t, o.Ctx.Err()
					}
					mu.Unlock()
					return
				}
				arena.Reset()
				tok := pw.BeginTrial()
				err := run(pw, arena, t)
				pw.EndTrial(tok)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if t < errT {
						errT, first = t, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// sweep is the shared engine: n jobs of `arity` trials each (1 for Sweep,
// 2 for SweepPaired — a pair runs back to back on one worker, preserving
// the sequential engine's base-then-variant publication order within the
// pair). Results land at out[t*arity+j]; deferred metrics publication
// replays them in that order.
func (o Options) sweep(n, arity int, cfgs func(t int) []core.TrialConfig) ([]*core.TrialResult, error) {
	armTrace := o.Trace.Enabled() && o.Trace.Len() == 0 && o.Trace.Dropped() == 0
	out := make([]*core.TrialResult, n*arity)
	err := o.forEachTrial(n, func(pw *perf.Worker, arena *pool.Arena, t int) error {
		for j, cfg := range cfgs(t) {
			flat := t*arity + j
			cfg.Perf = pw
			if cfg.Pool == nil {
				// Worker-local arena: both trials of a pair share it (the
				// second reuses what the first released), and Reset at the
				// next claim recycles it for the following trial.
				cfg.Pool = arena
			}
			if armTrace && t == 0 && j == 0 {
				cfg.Trace = o.Trace
			}
			if cfg.Metrics == nil {
				cfg.Metrics = o.Metrics
				cfg.DeferMetrics = cfg.Metrics != nil
			}
			// Supervision plumbing: cancellation, watchdogs and fault
			// injection. All zero-cost no-ops when unarmed, so a plain
			// sweep's trials are configured exactly as before. The
			// per-attempt collaborators (checker, flow analyzer — keyed by
			// the trial's own seedFor-derived seed and flat index so repro
			// lines and export order stay exact) are created inside
			// superviseTrial's attempt loop, fresh per attempt.
			if cfg.Ctx == nil {
				cfg.Ctx = o.Ctx
			}
			if cfg.StepBudget == 0 {
				cfg.StepBudget = o.StepBudget
			}
			res, err := o.superviseTrial(flat, cfg)
			o.Progress.Tick()
			if err != nil {
				return err
			}
			out[flat] = res
		}
		return nil
	})
	if err != nil && !isCancellation(err) {
		return nil, err
	}
	if o.Metrics != nil {
		// The deferred in-order drain is the sweep's publication-path wait:
		// results computed in parallel serialize here so registry snapshots
		// stay byte-identical across worker counts. perf books it as its own
		// stage — it is pure parallelization overhead the sequential inline
		// path never pays.
		sp := o.Perf.StartStage(perf.StagePublishDrain)
		// One publisher for the whole drain: instrument handles resolve
		// once instead of once per trial, so the drain stops hammering the
		// registry's lookup lock n times per family.
		pub := core.NewTrialPublisher(o.Metrics)
		for _, res := range out {
			// Publish skips nil slots (trials a cancelled sweep never ran)
			// and quarantined placeholders, so the drain is safe on partial
			// and degraded result sets alike.
			pub.Publish(res)
		}
		sp.Stop()
	}
	// On cancellation the partial results are returned together with the
	// context error: completed trials were drained above, and the caller
	// (cmds' SIGINT path) exports whatever the collectors accumulated.
	return out, err
}

// Sweep runs n trials — cfg(t) builds trial t's configuration, typically
// seeded via seedFor — across the worker pool and returns their results
// indexed by trial number. cfg may be called from worker goroutines and
// must not share mutable state across calls.
func (o Options) Sweep(n int, cfg func(t int) core.TrialConfig) ([]*core.TrialResult, error) {
	return o.sweep(n, 1, func(t int) []core.TrialConfig {
		return []core.TrialConfig{cfg(t)}
	})
}

// SweepPaired runs n base/variant trial pairs (Fig2's unspaced/spaced,
// Fig6's drops/no-drops): cfg(t) returns both configurations, which
// usually share a seed so the pair differs only in the knob under study.
// Both trials of a pair run on the same worker, base first.
func (o Options) SweepPaired(n int, cfg func(t int) (base, variant core.TrialConfig)) (baseRes, variantRes []*core.TrialResult, err error) {
	flat, err := o.sweep(n, 2, func(t int) []core.TrialConfig {
		a, b := cfg(t)
		return []core.TrialConfig{a, b}
	})
	if err != nil {
		return nil, nil, err
	}
	baseRes = make([]*core.TrialResult, n)
	variantRes = make([]*core.TrialResult, n)
	for t := 0; t < n; t++ {
		baseRes[t], variantRes[t] = flat[2*t], flat[2*t+1]
	}
	return baseRes, variantRes, nil
}
