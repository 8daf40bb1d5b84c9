package endpoint

import (
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/instr"
	"h2privacy/internal/metrics"
	"h2privacy/internal/netsim"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/website"
)

// testbed spins up the full stack over a configurable path.
type testbed struct {
	sched   *simtime.Scheduler
	path    *netsim.Path
	server  *Server
	browser *Browser
	site    *website.Site
	plan    *website.Plan
}

func newTestbed(t *testing.T, seed int64, link netsim.LinkConfig, perm []int) *testbed {
	t.Helper()
	tb := &testbed{sched: simtime.NewScheduler(), site: website.ISideWith()}
	rng := simtime.NewRand(seed)
	var err error
	tb.path, err = netsim.NewPath(tb.sched, rng.Fork(), netsim.PathConfig{Link: link}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := tcpsim.NewPair(tb.sched, rng.Fork(), tb.path, tcpsim.Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	tb.plan, err = tb.site.PlanFor(perm)
	if err != nil {
		t.Fatal(err)
	}
	tb.server, err = NewServer(tb.sched, rng.Fork(), pair.Server, tb.site, ServerConfig{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	tb.browser, err = NewBrowser(tb.sched, rng.Fork(), pair.Client, tb.site, tb.plan, BrowserConfig{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	tb.server.Start()
	tb.browser.Start()
	return tb
}

func goodLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		BandwidthBps:  1e9, // the paper's 1 Gbps gateway
		PropDelay:     8 * time.Millisecond,
		NaturalJitter: 500 * time.Microsecond,
		ReorderProb:   0.02, // real paths reorder occasionally, not per-packet
	}
}

var identityPerm = []int{0, 1, 2, 3, 4, 5, 6, 7}

func TestFullPageLoadCompletes(t *testing.T) {
	tb := newTestbed(t, 1, goodLink(), identityPerm)
	tb.sched.RunUntil(60 * time.Second)
	res := tb.browser.Result()
	if res.Broken {
		t.Fatalf("page load broken: %s", res.BrokenReason)
	}
	if !tb.browser.Done() {
		t.Fatalf("completed %d/%d objects", len(res.Completed), len(tb.plan.Steps))
	}
	if tb.server.Err() != nil {
		t.Fatalf("server error: %v", tb.server.Err())
	}
	// A clean network needs no reset cycles and at most stray retries.
	if res.AppRetries > 1 || res.Resets != 0 {
		t.Fatalf("retries=%d resets=%d on clean network", res.AppRetries, res.Resets)
	}
	if tb.server.TasksServed() < len(tb.site.Objects) {
		t.Fatalf("server served %d tasks, want ≥ %d", tb.server.TasksServed(), len(tb.site.Objects))
	}
}

func TestServerTransmitsCorrectBytes(t *testing.T) {
	tb := newTestbed(t, 2, goodLink(), identityPerm)
	tb.sched.RunUntil(60 * time.Second)
	// Per-object spans must sum to the object sizes.
	byInstance := map[string]int{}
	for _, span := range tb.server.TxLog() {
		byInstance[span.Instance] += span.Len
	}
	for _, o := range tb.site.Objects {
		if got := byInstance[o.ID+"#0"]; got != o.Size {
			t.Fatalf("object %s: %d bytes in tx log, want %d", o.ID, got, o.Size)
		}
	}
}

func TestBaselineMultiplexingOccurs(t *testing.T) {
	// With the full page in flight the server must interleave streams:
	// peak concurrency > 1 and the quiz HTML should multiplex in a
	// majority of trials (the paper's baseline: 68 % of loads).
	multiplexed := 0
	const trials = 16
	for seed := int64(0); seed < trials; seed++ {
		tb := newTestbed(t, 100+seed, goodLink(), identityPerm)
		tb.sched.RunUntil(60 * time.Second)
		if tb.server.ActivePeak() < 2 {
			t.Fatalf("seed %d: peak concurrency %d", seed, tb.server.ActivePeak())
		}
		dom := metrics.AnalyzeDoM(tb.server.TxLog(), nil).BestPerObject
		if dom[website.TargetID] > 0 {
			multiplexed++
		}
	}
	if multiplexed < 6 {
		t.Fatalf("quiz HTML multiplexed in only %d/%d baseline trials", multiplexed, trials)
	}
}

func TestRequestSpacingSerializesTarget(t *testing.T) {
	// The paper's core insight (Fig. 2): spacing requests so only one is
	// in the server queue at a time serializes the object. With browser
	// retries disabled (isolating the spacing mechanism), the quiz HTML
	// must transmit with DoM 0 in a clear majority of trials — far above
	// its baseline rate.
	serialized := 0
	const trials = 8
	for seed := int64(0); seed < trials; seed++ {
		sched := simtime.NewScheduler()
		rng := simtime.NewRand(700 + seed)
		path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: goodLink()}, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		// The adversary's targeted spacing: delay the k-th GET by k·80 ms
		// (retransmitted copies are delayed alongside, as netem does).
		ctrl := adversary.NewController(sched, rng.Fork(), path, instr.Bundle{})
		ctrl.SetRequestSpacing(80 * time.Millisecond)
		pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{}, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		site := website.ISideWith()
		plan, err := site.PlanFor(identityPerm)
		if err != nil {
			t.Fatal(err)
		}
		server, err := NewServer(sched, rng.Fork(), pair.Server, site, ServerConfig{}, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		browser, err := NewBrowser(sched, rng.Fork(), pair.Client, site, plan, BrowserConfig{
			RetryTimeout: time.Hour,
			ResetTimeout: time.Hour,
		}, instr.Bundle{})
		if err != nil {
			t.Fatal(err)
		}
		server.Start()
		browser.Start()
		sched.RunUntil(180 * time.Second)
		dom := metrics.AnalyzeDoM(server.TxLog(), nil).BestPerObject
		if got, ok := dom[website.TargetID]; ok && got == 0 {
			serialized++
		}
	}
	if serialized < trials*5/8 {
		t.Fatalf("target serialized in %d/%d spaced trials", serialized, trials)
	}
}

func TestBrowserRetriesOnStalledResponse(t *testing.T) {
	// Black-hole the first serving of the quiz HTML: the browser must
	// issue a duplicate GET and the server serve a second instance.
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(11)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: goodLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	site := website.ISideWith()
	plan, err := site.PlanFor(identityPerm)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(sched, rng.Fork(), pair.Server, site, ServerConfig{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	browser, err := NewBrowser(sched, rng.Fork(), pair.Client, site, plan, BrowserConfig{
		RetryTimeout: 150 * time.Millisecond,
	}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	// Black-hole server→client payload packets for a 500 ms window while
	// the page is mid-flight: stalled responses must trigger duplicate
	// GETs, and the server must serve extra instances.
	holeStart, holeEnd := 600*time.Millisecond, 1100*time.Millisecond
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*tcpsim.Segment)
		drop := len(seg.Payload) > 0 && now >= holeStart && now < holeEnd
		return netsim.Verdict{Drop: drop}
	}))
	server.Start()
	browser.Start()
	sched.RunUntil(120 * time.Second)
	if browser.Result().Broken {
		t.Fatalf("broken: %s", browser.Result().BrokenReason)
	}
	if !browser.Done() {
		t.Fatalf("completed %d/%d", len(browser.Result().Completed), len(plan.Steps))
	}
	if browser.Result().AppRetries == 0 {
		t.Fatal("no duplicate GETs despite a 500ms response black-hole")
	}
	if server.TasksServed() <= len(site.Objects) {
		t.Fatalf("served %d tasks; duplicates expected", server.TasksServed())
	}
}
