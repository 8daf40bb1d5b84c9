package endpoint

import (
	"strings"
	"testing"
	"time"

	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
	"h2privacy/internal/metrics"
	"h2privacy/internal/netsim"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/website"
)

// buildPair assembles server+browser over a fresh path with custom configs.
func buildPair(t *testing.T, seed int64, link netsim.LinkConfig, scfg ServerConfig, bcfg BrowserConfig, perm []int) (*simtime.Scheduler, *Server, *Browser) {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(seed)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: link}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	site := website.ISideWith()
	plan, err := site.PlanFor(perm)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sched, rng.Fork(), pair.Server, site, scfg, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewBrowser(sched, rng.Fork(), pair.Client, site, plan, bcfg, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	cli.Start()
	return sched, srv, cli
}

func TestServerPushDefense(t *testing.T) {
	sched, srv, cli := buildPair(t, 3, goodLink(),
		ServerConfig{PushEmblems: true},
		BrowserConfig{AcceptPush: true},
		identityPerm)
	sched.RunUntil(60 * time.Second)
	if cli.Result().Broken {
		t.Fatalf("broken: %s", cli.Result().BrokenReason)
	}
	if !cli.Done() {
		t.Fatalf("completed %d/%d", len(cli.Result().Completed), 48)
	}
	// Every emblem must have arrived via push, not GET.
	pushed := map[string]bool{}
	for _, ev := range cli.Result().Requests {
		if ev.Kind == RequestPushed {
			pushed[ev.ObjectID] = true
		}
		if ev.Kind == RequestInitial && strings.HasPrefix(ev.ObjectID, "emblem-") {
			t.Fatalf("emblem %s was requested despite push", ev.ObjectID)
		}
	}
	if len(pushed) != website.PartyCount {
		t.Fatalf("pushed %d emblems, want %d", len(pushed), website.PartyCount)
	}
	// Pushed emblems leave together: they should interleave heavily.
	dom := metrics.AnalyzeDoM(srv.TxLog(), nil).BestPerObject
	interleaved := 0
	for p := 0; p < website.PartyCount; p++ {
		if dom[website.EmblemID(p)] > 0 {
			interleaved++
		}
	}
	if interleaved < website.PartyCount/2 {
		t.Fatalf("only %d pushed emblems interleaved", interleaved)
	}
}

func TestServerPushRefusedWithoutAcceptPush(t *testing.T) {
	sched, srv, cli := buildPair(t, 4, goodLink(),
		ServerConfig{PushEmblems: true},
		BrowserConfig{}, // push not accepted
		identityPerm)
	sched.RunUntil(60 * time.Second)
	if cli.Result().Broken {
		t.Fatalf("broken: %s", cli.Result().BrokenReason)
	}
	if !cli.Done() {
		t.Fatalf("completed %d/%d", len(cli.Result().Completed), 48)
	}
	// All emblems arrive via ordinary GETs; no pushes recorded.
	for _, ev := range cli.Result().Requests {
		if ev.Kind == RequestPushed {
			t.Fatalf("push adopted despite ENABLE_PUSH=0: %v", ev)
		}
	}
	_ = srv
}

func TestDynamicRenderCache(t *testing.T) {
	// Serve the quiz twice: the first serving pays the render cost, the
	// second (fresh stream) hits the cache and starts much sooner.
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(5)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: goodLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	site := website.ISideWith()
	srv, err := NewServer(sched, rng.Fork(), pair.Server, site, ServerConfig{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the server with a bare h2 client stack.
	cli, err := newStack(pair.Client, true, rng.Fork(), h2.Config{}, instr.Bundle{}, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	firstByte := map[uint32]time.Duration{}
	reqAt := map[uint32]time.Duration{}
	cli.h2c.SetHandlers(h2.Handlers{
		OnStreamData: func(s *h2.Stream, data []byte, endStream bool) {
			if _, ok := firstByte[s.ID()]; !ok {
				firstByte[s.ID()] = sched.Now()
			}
		},
	})
	quizPath := site.Object(website.TargetID).Path
	get := func() {
		s, err := cli.h2c.OpenStream([]h2.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: site.Host},
			{Name: ":path", Value: quizPath},
		}, true, h2.PriorityParam{})
		if err != nil {
			t.Error(err)
			return
		}
		reqAt[s.ID()] = sched.Now()
	}
	pair.Client.OnStateChange(func(st tcpsim.State) {
		if st == tcpsim.StateEstablished {
			cli.tls.Start()
		}
	})
	cli.onEstablished = func() { get() }
	srv.Start()
	cli.h2c.Start()
	pair.Client.Connect()
	sched.After(2*time.Second, get)
	sched.RunUntil(10 * time.Second)
	if len(firstByte) != 2 {
		t.Fatalf("got %d responses", len(firstByte))
	}
	var ttfb []time.Duration
	for id, at := range firstByte {
		ttfb = append(ttfb, at-reqAt[id])
	}
	slow, fast := ttfb[0], ttfb[1]
	if slow < fast {
		slow, fast = fast, slow
	}
	if slow < 50*time.Millisecond {
		t.Fatalf("first render too fast: %v", slow)
	}
	if fast > 50*time.Millisecond {
		t.Fatalf("cached render too slow: %v", fast)
	}
}

func TestServerBackpressurePausesTasks(t *testing.T) {
	// A very slow link with a tiny buffer limit: the server must not
	// buffer the whole page into TCP.
	link := netsim.LinkConfig{BandwidthBps: 2e6, PropDelay: 8 * time.Millisecond} // 2 Mbps
	sched, srv, cli := buildPair(t, 6, link,
		ServerConfig{SendBufLimit: 32 << 10},
		BrowserConfig{ResetTimeout: time.Hour, RetryTimeout: time.Hour},
		identityPerm)
	maxBuffered := 0
	probe := func() {}
	probe = func() {
		if b := srv.stack.tcp.Buffered(); b > maxBuffered {
			maxBuffered = b
		}
		sched.After(20*time.Millisecond, probe)
	}
	sched.After(0, probe)
	sched.RunUntil(30 * time.Second)
	if maxBuffered > 48<<10 {
		t.Fatalf("send buffer reached %d bytes despite 32KiB limit", maxBuffered)
	}
	_ = cli
}

func TestH1EndpointsServeFullPage(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(7)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: goodLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	site := website.ISideWith()
	plan, err := site.PlanFor(identityPerm)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewH1Server(sched, rng.Fork(), pair.Server, site, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewH1Browser(sched, rng.Fork(), pair.Client, site, plan)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	cli.Start()
	sched.RunUntil(120 * time.Second)
	if srv.Err() != nil || cli.Err() != nil {
		t.Fatalf("errors: %v / %v", srv.Err(), cli.Err())
	}
	if !cli.Done() {
		t.Fatalf("completed %d/%d", len(cli.Completed()), len(plan.Steps))
	}
	// Sequential protocol: everything serialized, spans strictly ordered.
	dom := metrics.AnalyzeDoM(srv.TxLog(), nil).BestPerObject
	for _, o := range site.Objects {
		if dom[o.ID] != 0 {
			t.Fatalf("object %s multiplexed over HTTP/1.1 (dom=%v)", o.ID, dom[o.ID])
		}
	}
	// Completion order matches plan order.
	var last time.Duration
	for _, step := range plan.Steps {
		at := cli.Completed()[step.ObjectID]
		if at < last {
			t.Fatalf("object %s completed out of order", step.ObjectID)
		}
		last = at
	}
}

func TestPaddingChangesWireNotDoM(t *testing.T) {
	scfg := ServerConfig{}
	scfg.H2.PadData = func(n int) int { return 37 }
	sched, srv, cli := buildPair(t, 8, goodLink(), scfg, BrowserConfig{}, identityPerm)
	sched.RunUntil(60 * time.Second)
	if !cli.Done() {
		t.Fatalf("completed %d/48 with padding", len(cli.Result().Completed))
	}
	// Ground truth spans count plaintext bytes only: sums still exact.
	byInstance := map[string]int{}
	for _, span := range srv.TxLog() {
		byInstance[span.Instance] += span.Len
	}
	site := website.ISideWith()
	for _, o := range site.Objects {
		if got := byInstance[o.ID+"#0"]; got != o.Size {
			t.Fatalf("object %s: %d bytes in tx log, want %d", o.ID, got, o.Size)
		}
	}
}

func TestBrowserRetryCap(t *testing.T) {
	// Black-hole everything server→client: the browser may retry each
	// fetch at most MaxRetries times before the reset machinery (here
	// disabled) would take over.
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(31)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: goodLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*tcpsim.Segment)
		return netsim.Verdict{Drop: len(seg.Payload) > 0 && now > 100*time.Millisecond}
	}))
	pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{MaxRetries: 50}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	site := website.ISideWith()
	plan, err := site.PlanFor(identityPerm)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sched, rng.Fork(), pair.Server, site, ServerConfig{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewBrowser(sched, rng.Fork(), pair.Client, site, plan, BrowserConfig{
		RetryTimeout: 200 * time.Millisecond,
		MaxRetries:   2,
		ResetTimeout: time.Hour,
	}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	cli.Start()
	sched.RunUntil(20 * time.Second)
	// Count retries per object: none may exceed MaxRetries.
	perObj := map[string]int{}
	for _, ev := range cli.Result().Requests {
		if ev.Kind == RequestRetry {
			perObj[ev.ObjectID]++
		}
	}
	for id, n := range perObj {
		if n > 2 {
			t.Fatalf("object %s retried %d times (cap 2)", id, n)
		}
	}
	if len(perObj) == 0 {
		t.Fatal("no retries despite a black-holed response path")
	}
}

func TestBrowserResetBudgetBreaks(t *testing.T) {
	// Permanently dead response path with aggressive reset settings:
	// the browser must give up after MaxResets cycles.
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(33)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: goodLink()}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	path.Link(netsim.ServerToClient).AddProcessor(netsim.ProcessorFunc(func(now time.Duration, pkt *netsim.Packet) netsim.Verdict {
		seg := pkt.Payload.(*tcpsim.Segment)
		return netsim.Verdict{Drop: len(seg.Payload) > 0 && now > 100*time.Millisecond}
	}))
	pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{MaxRetries: 100, MaxRTO: 500 * time.Millisecond}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	site := website.ISideWith()
	plan, err := site.PlanFor(identityPerm)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sched, rng.Fork(), pair.Server, site, ServerConfig{}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewBrowser(sched, rng.Fork(), pair.Client, site, plan, BrowserConfig{
		RetryTimeout: time.Hour,
		ResetTimeout: 500 * time.Millisecond,
		MaxResets:    2,
	}, instr.Bundle{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	cli.Start()
	sched.RunUntil(60 * time.Second)
	res := cli.Result()
	if !res.Broken {
		t.Fatalf("browser never gave up (resets=%d)", res.Resets)
	}
	if res.Resets != 2 {
		t.Fatalf("resets = %d, want exactly the budget", res.Resets)
	}
}

func TestBrowserTriggerStepsWaitForDependency(t *testing.T) {
	// The emblem steps must not be issued before results-js completes.
	sched, srv, cli := buildPair(t, 35, goodLink(), ServerConfig{}, BrowserConfig{}, identityPerm)
	sched.RunUntil(60 * time.Second)
	_ = srv
	res := cli.Result()
	resultsDone := res.Completed[website.ResultsJSID]
	if resultsDone == 0 {
		t.Fatal("results-js never completed")
	}
	for _, ev := range res.Requests {
		if ev.Kind == RequestInitial && strings.HasPrefix(ev.ObjectID, "emblem-") {
			if ev.Time < resultsDone {
				t.Fatalf("emblem %s requested at %v, before results-js done at %v", ev.ObjectID, ev.Time, resultsDone)
			}
		}
	}
}
