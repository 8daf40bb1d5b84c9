package experiment

import (
	"fmt"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/capture"
	"h2privacy/internal/core"
	"h2privacy/internal/endpoint"
	"h2privacy/internal/instr"
	"h2privacy/internal/metrics"
	"h2privacy/internal/netsim"
	"h2privacy/internal/predict"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
	"h2privacy/internal/website"
)

// Ablation builds the adversary up stage by stage (§IV's narrative):
// nothing → jitter → jitter+throttle → the full staged attack.
func Ablation(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	fullPlan := adversary.DefaultPlan()
	stages := []struct {
		name string
		cfg  func(seed int64) core.TrialConfig
	}{
		{"no adversary", func(seed int64) core.TrialConfig {
			return core.TrialConfig{Seed: seed}
		}},
		{"+ jitter 50ms", func(seed int64) core.TrialConfig {
			return core.TrialConfig{Seed: seed, RequestSpacing: 50 * time.Millisecond, RandomJitter: 800 * time.Microsecond}
		}},
		{"+ throttle 800Mbps", func(seed int64) core.TrialConfig {
			return core.TrialConfig{Seed: seed, RequestSpacing: 50 * time.Millisecond, RandomJitter: 800 * time.Microsecond, ThrottleBps: 800e6}
		}},
		{"+ drops (full attack)", func(seed int64) core.TrialConfig {
			plan := fullPlan
			return core.TrialConfig{Seed: seed, Attack: &plan}
		}},
	}
	rep := &Report{
		ID:     "ablation",
		Title:  "Adversary stage ablation",
		Header: []string{"stage", "quiz non-mux (%)", "quiz identified (%)", "broken (%)"},
	}
	results, err := opts.Sweep(len(stages)*opts.Trials, func(k int) core.TrialConfig {
		i, t := k/opts.Trials, k%opts.Trials
		return stages[i].cfg(seedFor(opts.BaseSeed, i, opts.Trials, t))
	})
	if err != nil {
		return nil, err
	}
	for i, st := range stages {
		var nonMux, success, broken metrics.Counter
		for t := 0; t < opts.Trials; t++ {
			res := results[i*opts.Trials+t]
			nonMux.Observe(res.BestDoM[website.TargetID] == 0)
			success.Observe(res.ObjectSuccess(website.TargetID))
			broken.Observe(res.Broken)
		}
		rep.Rows = append(rep.Rows, []string{st.name, pct(nonMux.Percent()), pct(success.Percent()), pct(broken.Percent())})
	}
	rep.Notes = append(rep.Notes, "shape criterion: each §IV stage raises identification; only the full staged attack makes it reliable")
	return rep, nil
}

// Defense evaluates the §VII idea the paper proposes: the client requests
// the emblems in a random order every load, decoupling the request order
// from the displayed ranking.
func Defense(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	plan := adversary.DefaultPlan()
	run := func(variant int, shuffled bool) (rankAcc, objAcc float64, err error) {
		results, err := opts.Sweep(opts.Trials, func(t int) core.TrialConfig {
			return core.TrialConfig{
				Seed:                seedFor(opts.BaseSeed, variant, opts.Trials, t),
				Attack:              &plan,
				ShuffledEmblemOrder: shuffled,
			}
		})
		if err != nil {
			return 0, 0, err
		}
		var rank, obj metrics.Counter
		for _, res := range results {
			for k := 0; k < website.PartyCount; k++ {
				rank.Observe(res.SequenceRankCorrect(k))
				obj.Observe(res.ObjectSuccess(res.DisplaySeq[k]))
			}
		}
		return rank.Percent(), obj.Percent(), nil
	}
	baseRank, baseObj, err := run(0, false)
	if err != nil {
		return nil, err
	}
	defRank, defObj, err := run(1, true)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:     "defense",
		Title:  "Randomized request order (paper §VII future work)",
		Header: []string{"condition", "rank accuracy (%)", "emblem identified (%)"},
		Rows: [][]string{
			{"preference order (vulnerable)", pct(baseRank), pct(baseObj)},
			{"randomized order (defense)", pct(defRank), pct(defObj)},
		},
		Notes: []string{
			"the defense leaves object identification intact (sizes still leak) but collapses rank inference toward the 12.5% chance level",
		},
	}, nil
}

// Padding evaluates the orthogonal defense HTTP/2 ships in the framing
// layer: random DATA-frame padding breaks the size→identity mapping even
// for fully serialized transmissions.
func Padding(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	plan := adversary.DefaultPlan()
	run := func(variant int, pad bool) (objAcc float64, err error) {
		results, err := opts.Sweep(opts.Trials, func(t int) core.TrialConfig {
			cfg := core.TrialConfig{
				Seed:   seedFor(opts.BaseSeed, variant, opts.Trials, t),
				Attack: &plan,
			}
			if pad {
				// Per-trial padding RNG, owned by this trial's closure.
				rng := simtime.NewRand(cfg.Seed * 7)
				cfg.Server.H2.PadData = func(n int) int { return rng.Intn(256) }
			}
			return cfg
		})
		if err != nil {
			return 0, err
		}
		var obj metrics.Counter
		for _, res := range results {
			obj.Observe(res.ObjectSuccess(website.TargetID))
			for k := 0; k < website.PartyCount; k++ {
				obj.Observe(res.ObjectSuccess(res.DisplaySeq[k]))
			}
		}
		return obj.Percent(), nil
	}
	noPad, err := run(0, false)
	if err != nil {
		return nil, err
	}
	padded, err := run(1, true)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:     "padding",
		Title:  "Random DATA-frame padding vs the attack",
		Header: []string{"condition", "objects identified (%)"},
		Rows: [][]string{
			{"no padding", pct(noPad)},
			{"random 0-255B padding per frame", pct(padded)},
		},
		Notes: []string{"padding survives serialization: the observed size no longer matches the catalog"},
	}, nil
}

// PushDefense evaluates the other §VII idea: the server pushes all eight
// emblems, in catalog order, the moment the results script is requested.
// The adversary's two levers fail at once: its GET counter never sees
// emblem requests to space, and the transfer order carries no preference
// information.
func PushDefense(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	plan := adversary.DefaultPlan()
	run := func(variant int, push bool) (rankAcc, identAcc, domAcc float64, err error) {
		results, err := opts.Sweep(opts.Trials, func(t int) core.TrialConfig {
			return core.TrialConfig{
				Seed:       seedFor(opts.BaseSeed, variant, opts.Trials, t),
				Attack:     &plan,
				ServerPush: push,
			}
		})
		if err != nil {
			return 0, 0, 0, err
		}
		var rank, ident, nonMux metrics.Counter
		for _, res := range results {
			for k := 0; k < website.PartyCount; k++ {
				rank.Observe(res.SequenceRankCorrect(k))
				ident.Observe(res.ObjectSuccess(res.DisplaySeq[k]))
				nonMux.Observe(res.BestCompleteDoM[res.DisplaySeq[k]] == 0)
			}
		}
		return rank.Percent(), ident.Percent(), nonMux.Percent(), nil
	}
	baseRank, baseIdent, baseDom, err := run(0, false)
	if err != nil {
		return nil, err
	}
	pushRank, pushIdent, pushDom, err := run(1, true)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:     "pushdef",
		Title:  "Server-push defense (paper §VII future work)",
		Header: []string{"condition", "emblem rank accuracy (%)", "emblem identified (%)", "emblem non-mux (%)"},
		Rows: [][]string{
			{"request-driven (vulnerable)", pct(baseRank), pct(baseIdent), pct(baseDom)},
			{"server push (defense)", pct(pushRank), pct(pushIdent), pct(pushDom)},
		},
		Notes: []string{
			"pushed emblems leave together and interleave; the spacing lever never sees their requests",
		},
	}, nil
}

// H1Baseline contrasts with HTTP/1.1 (§II): sequential processing means
// every object is trivially serialized and identified with NO adversary.
func H1Baseline(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	trials := opts.Trials
	if trials > 25 {
		trials = 25 // the h1 page load is slow (sequential); shape needs few trials
	}
	// This runner assembles its H1 testbed by hand instead of going through
	// core.RunTrial, so it rides the generic trial pool: each body owns its
	// scheduler and RNG, writes only outcomes[t], and ticks the reporter.
	outcomes := make([]struct{ serialized, identified metrics.Counter }, trials)
	err := opts.ForEachTrial(trials, func(t int) error {
		seed := seedFor(opts.BaseSeed, 0, trials, t)
		sched := simtime.NewScheduler()
		rng := simtime.NewRand(seed)
		path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: core.DefaultLink()}, instr.Bundle{})
		if err != nil {
			return err
		}
		mon := capture.NewMonitor(instr.Bundle{})
		path.AddTap(mon)
		pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{}, instr.Bundle{})
		if err != nil {
			return err
		}
		site := website.ISideWith()
		plan, err := site.PlanFor(website.RandomPerm(rng.Fork()))
		if err != nil {
			return err
		}
		srv, err := endpoint.NewH1Server(sched, rng.Fork(), pair.Server, site, endpoint.ServerConfig{})
		if err != nil {
			return err
		}
		cli, err := endpoint.NewH1Browser(sched, rng.Fork(), pair.Client, site, plan)
		if err != nil {
			return err
		}
		srv.Start()
		cli.Start()
		sched.RunUntil(120 * time.Second)
		if srv.Err() != nil || cli.Err() != nil {
			return fmt.Errorf("h1 trial %d: server=%v client=%v", t, srv.Err(), cli.Err())
		}
		dom := metrics.AnalyzeDoM(srv.TxLog(), nil).BestPerObject
		matched := h1Identify(mon.Records(), site)
		catalog := site.SizeToIdentity()
		for _, obj := range site.Objects {
			outcomes[t].serialized.Observe(dom[obj.ID] == 0)
			if _, unique := catalog[obj.Size]; unique {
				outcomes[t].identified.Observe(matched[obj.ID])
			}
		}
		opts.Progress.Tick()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var identified, serialized metrics.Counter
	for t := range outcomes {
		serialized.Hits += outcomes[t].serialized.Hits
		serialized.Total += outcomes[t].serialized.Total
		identified.Hits += outcomes[t].identified.Hits
		identified.Total += outcomes[t].identified.Total
	}
	return &Report{
		ID:     "h1base",
		Title:  "HTTP/1.1 baseline (no adversary needed)",
		Header: []string{"metric", "measured", "expectation"},
		Rows: [][]string{
			{"objects serialized (DoM = 0)", pct(serialized.Percent()), "100% (sequential protocol)"},
			{"uniquely-sized objects identified", pct(identified.Percent()), "≈100%"},
		},
		Notes: []string{"this is the §II premise: HTTP/1.x leaks every object size to a purely passive eavesdropper"},
	}, nil
}

// h1Identify applies the classic HTTP/1.x delimiter heuristic (the
// paper's Fig. 1): responses are strictly sequential and the record layer
// fills records to MaxPlaintext mid-object, so a short record delimits an
// object. The estimated body size is the inter-delimiter sum minus the
// (approximately constant) response head.
func h1Identify(records []capture.RecordEvent, site *website.Site) map[string]bool {
	const approxHead = 60
	an := predict.NewAnalyzer(site.SizeToIdentity(), predict.Config{Tolerance: 150})
	out := make(map[string]bool)
	sum := 0
	for _, rec := range records {
		if rec.Dir != netsim.ServerToClient || rec.Type != tlsrec.ContentApplicationData || rec.Tainted {
			continue
		}
		sum += rec.PlainLen
		if rec.PlainLen == tlsrec.MaxPlaintext {
			continue // a full record never ends a response
		}
		if id, _, ok := an.Identify(sum - approxHead); ok {
			out[id] = true
		}
		sum = 0
	}
	return out
}
