package flowseq_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"h2privacy/internal/flowseq"
	"h2privacy/internal/obs"
	"h2privacy/internal/trace"
)

// testClock is a hand-advanced Clock for deterministic feeds.
type testClock struct{ at time.Duration }

func (c *testClock) Now() time.Duration { return c.at }

func TestNilAnalyzerNoOps(t *testing.T) {
	var a *flowseq.Analyzer
	if a.Enabled() {
		t.Fatal("nil analyzer reported enabled")
	}
	// Every hook must be callable on nil without panicking.
	a.Concurrent()
	a.SetClock(trace.WallClock())
	a.SetFlow("x")
	a.Record(true, 100, 91, true, false, false)
	a.H2Frame(true, true, 0x0, 1, 100, 0)
	a.Request("obj", 1, "initial")
	a.ObjectDone("obj", 1)
	if ff := a.Finalize(); ff != nil {
		t.Fatalf("nil analyzer finalized to %+v", ff)
	}
}

func TestNilCollectorExports(t *testing.T) {
	var c *flowseq.Collector
	c.PublishTo(obs.NewRegistry())
	var buf bytes.Buffer
	for _, format := range []string{flowseq.FormatTable, flowseq.FormatJSONL, flowseq.FormatCSV} {
		if err := c.WriteFlows(&buf, format); err != nil {
			t.Fatalf("nil collector WriteFlows(%s): %v", format, err)
		}
	}
	if r := c.Receipt("p"); r.Trials != 0 || r.Schema != flowseq.SchemaVersion {
		t.Fatalf("nil collector receipt = %+v", r)
	}
}

func TestWireBurstSegmentation(t *testing.T) {
	clk := &testClock{}
	a := flowseq.New(0, nil)
	a.SetClock(clk)
	a.SetFlow("f")

	// Burst 1 (s2c): HEADERS record then two DATA records within the gap.
	clk.at = 10 * time.Millisecond
	a.Record(false, 120, 100, false, false, false) // response HEADERS: no body
	clk.at = 20 * time.Millisecond
	a.Record(false, 1500, 1460, false, false, false)
	clk.at = 30 * time.Millisecond
	a.Record(false, 1500, 1460, false, false, false)
	// Tainted retransmission inside the silence: must not extend the burst.
	clk.at = 50 * time.Millisecond
	a.Record(false, 1500, 1460, false, false, true)
	// Burst 2 after > BurstGap of silence.
	clk.at = 100 * time.Millisecond
	a.Record(false, 800, 780, false, false, false)

	ff := a.Finalize()
	if len(ff.Bursts) != 2 {
		t.Fatalf("bursts = %d, want 2", len(ff.Bursts))
	}
	b0, b1 := ff.Bursts[0], ff.Bursts[1]
	if b0.Dir != "s2c" || b0.Records != 3 || b0.Wire != 120+1500+1500 {
		t.Fatalf("burst 0 = %+v", b0)
	}
	// First record is HEADERS (no body); each DATA record sheds one frame
	// header of overhead.
	if want := 2 * (1460 - 9); b0.Body != want {
		t.Fatalf("burst 0 body = %d, want %d", b0.Body, want)
	}
	if b0.GapNS != -1 {
		t.Fatalf("first burst gap = %d, want -1", b0.GapNS)
	}
	if b0.StartNS != int64(10*time.Millisecond) || b0.EndNS != int64(30*time.Millisecond) {
		t.Fatalf("burst 0 span = [%d, %d]", b0.StartNS, b0.EndNS)
	}
	if b1.Records != 1 || b1.GapNS != int64(70*time.Millisecond) {
		t.Fatalf("burst 1 = %+v", b1)
	}
	if ff.Tainted != 1 {
		t.Fatalf("tainted = %d, want 1", ff.Tainted)
	}
}

func TestCleanSlateSpanDetection(t *testing.T) {
	clk := &testClock{}
	a := flowseq.New(0, nil)
	a.SetClock(clk)

	// Server talks, then goes silent; a control volley after SpanSilence
	// opens a span, closed when substantial server data resumes.
	clk.at = 10 * time.Millisecond
	a.Record(false, 1500, 1460, false, false, false)
	clk.at = 200 * time.Millisecond
	a.Record(true, 50, 30, false, true, false) // RST volley begins
	clk.at = 210 * time.Millisecond
	a.Record(true, 50, 30, false, true, false)
	clk.at = 400 * time.Millisecond
	a.Record(false, 1500, 1460, false, false, false) // server resumes → close

	// A second volley that the trial end cuts off mid-span.
	clk.at = 900 * time.Millisecond
	a.Record(true, 50, 30, false, true, false)

	ff := a.Finalize()
	if len(ff.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(ff.Spans))
	}
	s0 := ff.Spans[0]
	if s0.StartNS != int64(200*time.Millisecond) || s0.EndNS != int64(400*time.Millisecond) || s0.Resets != 2 {
		t.Fatalf("span 0 = %+v", s0)
	}
	// The open span closes at the last observed event.
	s1 := ff.Spans[1]
	if s1.StartNS != int64(900*time.Millisecond) || s1.EndNS != int64(900*time.Millisecond) || s1.Resets != 1 {
		t.Fatalf("span 1 = %+v", s1)
	}
}

func TestNoSpanWithoutPriorServerData(t *testing.T) {
	clk := &testClock{at: 500 * time.Millisecond}
	a := flowseq.New(0, nil)
	a.SetClock(clk)
	// Control records before the server ever talked (normal setup) must
	// not open a span.
	a.Record(true, 50, 30, false, true, false)
	if ff := a.Finalize(); len(ff.Spans) != 0 {
		t.Fatalf("spans = %d, want 0", len(ff.Spans))
	}
}

func TestStreamTimelinesAndLabels(t *testing.T) {
	clk := &testClock{}
	a := flowseq.New(0, nil)
	a.SetClock(clk)
	a.SetFlow("f")

	// The analyzer is wired on the client endpoint: sent=true means c2s.
	clk.at = 1 * time.Millisecond
	a.Request("obj-a", 1, "initial")
	a.H2Frame(true, true, 0x1, 1, 30, 0) // request HEADERS out
	clk.at = 2 * time.Millisecond
	a.Request("obj-b", 3, "initial")
	a.H2Frame(true, true, 0x1, 3, 30, 0)

	// Stream 1 serialized: all its DATA arrives before stream 3 starts.
	clk.at = 10 * time.Millisecond
	a.H2Frame(true, false, 0x1, 1, 20, 0) // response HEADERS in
	a.H2Frame(true, false, 0x0, 1, 1000, 0)
	clk.at = 12 * time.Millisecond
	a.H2Frame(true, false, 0x0, 1, 500, 0x1) // END_STREAM
	a.ObjectDone("obj-a", 1)

	// Stream 3 multiplexed against stream 5's push.
	clk.at = 20 * time.Millisecond
	a.H2Frame(true, false, 0x0, 3, 700, 0)
	clk.at = 21 * time.Millisecond
	a.H2Frame(true, false, 0x0, 5, 400, 0) // interleaves into 3's span
	// A late burst on stream 3 after > BurstGap.
	clk.at = 60 * time.Millisecond
	a.H2Frame(true, false, 0x0, 3, 300, 0x1)
	a.ObjectDone("obj-b", 3)

	// Stream 5 reset mid-flight; stream 7 never terminates.
	clk.at = 70 * time.Millisecond
	a.H2Frame(true, true, 0x3, 5, 4, 0)
	a.Request("obj-c", 7, "retry")

	ff := a.Finalize()
	if len(ff.Streams) != 4 {
		t.Fatalf("streams = %d, want 4", len(ff.Streams))
	}
	byID := map[uint32]*flowseq.StreamFeature{}
	for i := range ff.Streams {
		byID[ff.Streams[i].Stream] = &ff.Streams[i]
	}

	s1 := byID[1]
	if s1.Label != "serialized" || s1.End != "complete" || !s1.Delivered {
		t.Fatalf("stream 1 = %+v", s1)
	}
	if s1.Object != "obj-a" || s1.Kind != "initial" {
		t.Fatalf("stream 1 labels = %q %q", s1.Object, s1.Kind)
	}
	if s1.RequestNS != int64(time.Millisecond) || s1.FirstByteNS != int64(10*time.Millisecond) ||
		s1.LastByteNS != int64(12*time.Millisecond) || s1.HeadersNS != int64(10*time.Millisecond) {
		t.Fatalf("stream 1 timeline = %+v", s1)
	}
	if s1.Bytes != 1500 || s1.DataFrames != 2 || s1.Interleaved != 0 {
		t.Fatalf("stream 1 sizes = %+v", s1)
	}

	s3 := byID[3]
	if s3.Label != "multiplexed" || s3.Interleaved != 1 {
		t.Fatalf("stream 3 = %+v", s3)
	}
	if s3.Bursts != 2 || s3.BurstBytes[0] != 700 || s3.BurstBytes[1] != 300 {
		t.Fatalf("stream 3 bursts = %+v", s3)
	}
	if s3.MaxGapNS != int64(40*time.Millisecond) || s3.GapSumNS != s3.MaxGapNS {
		t.Fatalf("stream 3 gaps = %+v", s3)
	}

	if s5 := byID[5]; s5.End != "reset" {
		t.Fatalf("stream 5 end = %q", s5.End)
	}
	if s7 := byID[7]; s7.End != "open" || s7.Label != "" {
		t.Fatalf("stream 7 = %+v", s7)
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	a := flowseq.New(0, nil)
	a.Record(false, 100, 91, false, false, false)
	first := a.Finalize()
	if second := a.Finalize(); second != first {
		t.Fatal("second Finalize returned a different feature set")
	}
}

// feed drives one deterministic mixed workload into a.
func feed(a *flowseq.Analyzer, clk *testClock) {
	clk.at = time.Millisecond
	a.Request("obj", 1, "initial")
	a.H2Frame(true, true, 0x1, 1, 30, 0)
	a.Record(true, 100, 91, true, false, false)
	clk.at = 5 * time.Millisecond
	a.Record(false, 120, 100, false, false, false)
	a.H2Frame(true, false, 0x1, 1, 20, 0)
	clk.at = 6 * time.Millisecond
	a.Record(false, 1500, 1460, false, false, false)
	a.H2Frame(true, false, 0x0, 1, 1400, 0x1)
	a.ObjectDone("obj", 1)
}

func TestCollectorExportFormats(t *testing.T) {
	col := flowseq.NewCollector()
	// Trials finalize out of index order; exports must sort.
	for _, trial := range []int{1, 0} {
		clk := &testClock{}
		a := flowseq.New(trial, col)
		a.SetClock(clk)
		a.SetFlow("f")
		feed(a, clk)
		a.Finalize()
	}

	r := col.Receipt("out.csv")
	if r.Trials != 2 || r.StreamRows != 2 || r.BurstRows != 4 || r.Path != "out.csv" {
		t.Fatalf("receipt = %+v", r)
	}

	var csvBuf bytes.Buffer
	if err := col.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csvBuf.String(), "\n"), "\n")
	if len(lines) != 4 { // schema comment + header + 2 stream rows
		t.Fatalf("CSV lines = %d:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "# flowseq stream features, schema 1") {
		t.Fatalf("CSV schema line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "0,f,1,obj,initial,serialized,complete,1,") {
		t.Fatalf("CSV row = %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "1,f,1,") {
		t.Fatalf("CSV rows out of trial order: %q", lines[3])
	}

	var jsonlBuf bytes.Buffer
	if err := col.WriteJSONL(&jsonlBuf); err != nil {
		t.Fatal(err)
	}
	jl := strings.Split(strings.TrimRight(jsonlBuf.String(), "\n"), "\n")
	if !strings.HasPrefix(jl[0], `{"table":"meta","schema":1,`) {
		t.Fatalf("JSONL meta line = %q", jl[0])
	}
	var streams, bursts int
	for _, line := range jl[1:] {
		switch {
		case strings.HasPrefix(line, `{"table":"stream"`):
			streams++
		case strings.HasPrefix(line, `{"table":"burst"`):
			bursts++
		}
	}
	if streams != 2 || bursts != 4 {
		t.Fatalf("JSONL rows: %d streams, %d bursts", streams, bursts)
	}

	var tblBuf bytes.Buffer
	if err := col.WriteTable(&tblBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tblBuf.String(), "trial 0  flow f") ||
		!strings.Contains(tblBuf.String(), "1 serialized") {
		t.Fatalf("table output:\n%s", tblBuf.String())
	}

	if err := col.WriteFlows(&bytes.Buffer{}, "bogus"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestExportDeterministic(t *testing.T) {
	render := func() (string, string) {
		col := flowseq.NewCollector()
		clk := &testClock{}
		a := flowseq.New(0, col)
		a.SetClock(clk)
		a.SetFlow("f")
		feed(a, clk)
		a.Finalize()
		var csvBuf, jsonlBuf bytes.Buffer
		if err := col.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSONL(&jsonlBuf); err != nil {
			t.Fatal(err)
		}
		return csvBuf.String(), jsonlBuf.String()
	}
	csv1, jsonl1 := render()
	csv2, jsonl2 := render()
	if csv1 != csv2 || jsonl1 != jsonl2 {
		t.Fatal("same feed rendered differently across runs")
	}
}

func TestLiveCountersAndPublishedFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	col := flowseq.NewCollector()
	col.PublishTo(reg)

	clk := &testClock{}
	a := flowseq.New(0, col)
	a.SetClock(clk)
	feed(a, clk)
	ff := a.Finalize()
	flowseq.PublishFeatures(reg, ff)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`flow_records_observed_total{dir="c2s"} 1`,
		`flow_records_observed_total{dir="s2c"} 2`,
		"flow_get_records_total 1",
		"flow_streams_opened_total 1",
		`flow_streams_total{label="serialized"} 1`,
		`flow_stream_end_total{state="complete"} 1`,
		`flow_bursts_total{dir="s2c"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if _, err := obs.LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
}

// TestCountsAddedOncePerFlow pins when the collector's per-flow counters
// move: not while a flow is fed (an attempt that never finalizes adds
// nothing), by the flow's counts when it finalizes, not again on a
// repeated Finalize, and by a later flow's own counts when it arrives
// under the same (trial, flow) key, as the next sweep's trial of the same
// index does, while its rows replace the earlier flow's.
func TestCountsAddedOncePerFlow(t *testing.T) {
	reg := obs.NewRegistry()
	col := flowseq.NewCollector()
	col.PublishTo(reg)
	gets := func() float64 {
		for _, f := range reg.Snapshot().Families {
			if f.Name == "flow_get_records_total" {
				return f.Series[0].Value
			}
		}
		return -1
	}
	clk := &testClock{}
	for i, want := range []float64{1, 2} {
		a := flowseq.New(0, col)
		a.SetClock(clk)
		a.SetFlow("f")
		feed(a, clk)
		if got := gets(); got != want-1 {
			t.Fatalf("flow %d: %v GETs counted before Finalize, want %v", i, got, want-1)
		}
		a.Finalize()
		a.Finalize()
		if got := gets(); got != want {
			t.Fatalf("flow %d: %v GETs counted after Finalize, want %v", i, got, want)
		}
	}
	if r := col.Receipt(""); r.Trials != 1 || r.StreamRows != 1 {
		t.Fatalf("receipt %+v, want the second flow's one stream row", r)
	}
}

// TestPublishToPinsFamilyShape pins the mid-sweep scrape contract: the
// family and series set after PublishTo alone equals the set after
// features publish, so a scrape's shape never depends on how many trials
// happened to finish.
func TestPublishToPinsFamilyShape(t *testing.T) {
	names := func(reg *obs.Registry) []string {
		snap := reg.Snapshot()
		out := make([]string, 0, len(snap.Families))
		for _, f := range snap.Families {
			out = append(out, f.Name)
		}
		return out
	}
	pre := obs.NewRegistry()
	flowseq.NewCollector().PublishTo(pre)

	post := obs.NewRegistry()
	col := flowseq.NewCollector()
	col.PublishTo(post)
	clk := &testClock{}
	a := flowseq.New(0, col)
	a.SetClock(clk)
	feed(a, clk)
	flowseq.PublishFeatures(post, a.Finalize())

	preNames, postNames := names(pre), names(post)
	if strings.Join(preNames, ",") != strings.Join(postNames, ",") {
		t.Fatalf("family shape drifted:\n pre: %v\npost: %v", preNames, postNames)
	}
}

// TestConcurrentFeed exercises the Concurrent path under -race: several
// goroutines feed one analyzer while the collector is exported live.
func TestConcurrentFeed(t *testing.T) {
	col := flowseq.NewCollector()
	col.PublishTo(obs.NewRegistry())
	a := flowseq.New(0, col)
	a.Concurrent()
	a.SetClock(trace.WallClock())
	a.SetFlow("live")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := uint32(2*g + 1)
			a.Request("obj", stream, "initial")
			for i := 0; i < 200; i++ {
				a.Record(g%2 == 0, 1500, 1460, false, false, false)
				a.H2Frame(true, false, 0x0, stream, 1000, 0)
			}
			a.H2Frame(true, false, 0x0, stream, 10, 0x1)
		}(g)
	}
	// Concurrent scrapes while the feed runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = col.WriteFlows(&bytes.Buffer{}, flowseq.FormatTable)
			_ = col.Receipt("")
		}
	}()
	wg.Wait()

	ff := a.Finalize()
	if len(ff.Streams) != 4 {
		t.Fatalf("streams = %d, want 4", len(ff.Streams))
	}
	for _, s := range ff.Streams {
		if s.End != "complete" || s.DataFrames != 201 {
			t.Fatalf("stream %d = %+v", s.Stream, s)
		}
	}
}
