package h2privacy_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/h2"
	"h2privacy/internal/hpack"
	"h2privacy/internal/instr"
	"h2privacy/internal/metrics"
	"h2privacy/internal/obs"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tlsrec"
	"h2privacy/internal/trace"
	"h2privacy/internal/website"
)

// benchExperiment runs one experiment harness per iteration at a small
// trial count (the paper uses 100 trials; benchmarks measure the machinery,
// the cmd/h2bench tool regenerates the full tables).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := runner(experiment.Options{Trials: 2, BaseSeed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rep.Render(io.Discard)
	}
}

// One benchmark per table and figure in the paper's evaluation.

func BenchmarkFig1SizeEstimation(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig2RequestSpacing(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3BaselineMultiplexing(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkTable1JitterSweep(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig4RetransmissionStorm(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5BandwidthSweep(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6StreamReset(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkTable2FullAttack(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkAblationStages(b *testing.B)           { benchExperiment(b, "ablation") }
func BenchmarkDefenseRandomization(b *testing.B)     { benchExperiment(b, "defense") }
func BenchmarkDefenseServerPush(b *testing.B)        { benchExperiment(b, "pushdef") }
func BenchmarkPartialInference(b *testing.B)         { benchExperiment(b, "partial") }
func BenchmarkSensitivitySweep(b *testing.B)         { benchExperiment(b, "sensitivity") }
func BenchmarkCrossTraffic(b *testing.B)             { benchExperiment(b, "crosstraffic") }
func BenchmarkTCPAblation(b *testing.B)              { benchExperiment(b, "tcpablation") }
func BenchmarkDefensePadding(b *testing.B)           { benchExperiment(b, "padding") }
func BenchmarkH1Baseline(b *testing.B)               { benchExperiment(b, "h1base") }

// BenchmarkTrialBaseline measures one complete simulated page load
// (handshake, 48 objects, monitor, predictor).
func BenchmarkTrialBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.RunTrial(core.TrialConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Completed) == 0 {
			b.Fatal("empty trial")
		}
	}
}

// BenchmarkTrialFullAttack measures one staged-attack trial end to end.
func BenchmarkTrialFullAttack(b *testing.B) {
	plan := adversary.DefaultPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunTrial(core.TrialConfig{Seed: int64(i), Attack: &plan}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

func BenchmarkHPACKEncodeRequest(b *testing.B) {
	enc := hpack.NewEncoder(hpack.DefaultDynamicTableSize)
	fields := []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.isidewith.test"},
		{Name: ":path", Value: "/emblems/democratic.png"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if block := enc.Encode(nil, fields); len(block) == 0 {
			b.Fatal("empty block")
		}
	}
}

func BenchmarkHPACKRoundTrip(b *testing.B) {
	enc := hpack.NewEncoder(hpack.DefaultDynamicTableSize)
	dec := hpack.NewDecoder(hpack.DefaultDynamicTableSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fields := []hpack.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":path", Value: fmt.Sprintf("/static/%d.js", i%32)},
		}
		block := enc.Encode(nil, fields)
		if _, err := dec.Decode(block); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameCodecData(b *testing.B) {
	payload := make([]byte, 1200)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire := h2.AppendData(nil, 5, payload, false, 0)
		if _, err := h2.ParseFrame(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTLSRecord seals and opens one record of size bytes per iteration
// over an established in-memory pair.
func benchTLSRecord(b *testing.B, size int) {
	var cr, sr [32]byte
	var client *tlsrec.Conn
	server := tlsrec.NewConn(false, sr, func(p []byte) { _ = client.Feed(p) })
	client = tlsrec.NewConn(true, cr, func(p []byte) { _ = server.Feed(p) })
	server.OnRecord(func(tlsrec.ContentType, []byte) {})
	client.Start()
	payload := make([]byte, size)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := client.Send(tlsrec.ContentApplicationData, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLSRecordSeal(b *testing.B) { benchTLSRecord(b, 1200) }

func BenchmarkTLSRecordMax(b *testing.B) { benchTLSRecord(b, tlsrec.MaxPlaintext) }

func BenchmarkDegreeOfMultiplexing(b *testing.B) {
	var spans []metrics.TxSpan
	off := int64(0)
	for i := 0; i < 2000; i++ {
		inst := fmt.Sprintf("obj%d#0", i%50)
		spans = append(spans, metrics.TxSpan{Instance: inst, ObjectID: inst, Offset: off, Len: 1200})
		off += 1200
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if dom := metrics.DegreeOfMultiplexing(spans); len(dom) == 0 {
			b.Fatal("no result")
		}
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := simtime.NewScheduler()
		var n int
		for j := 0; j < 1000; j++ {
			s.At(time.Duration(j)*time.Microsecond, func() { n++ })
		}
		s.Run()
		if n != 1000 {
			b.Fatal("missed events")
		}
	}
}

func BenchmarkSitePlan(b *testing.B) {
	site := website.ISideWith()
	rng := simtime.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := site.PlanFor(website.RandomPerm(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- trace subsystem ---

// BenchmarkTraceOverhead compares the emit hot path disabled (nil tracer,
// the default for every benchmark above) and enabled, plus a full traced
// attack trial against BenchmarkTrialFullAttack's untraced baseline.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("emit-disabled", func(b *testing.B) {
		var tr *trace.Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.Enabled() {
				tr.Emit(trace.LayerNetsim, "enqueue",
					trace.Num("id", int64(i)), trace.Num("size", 1500))
			}
		}
	})
	b.Run("emit-enabled", func(b *testing.B) {
		tr := trace.New(nil, trace.Config{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.Enabled() {
				tr.Emit(trace.LayerNetsim, "enqueue",
					trace.Num("id", int64(i)), trace.Num("size", 1500))
			}
		}
	})
	b.Run("trial-traced", func(b *testing.B) {
		plan := adversary.DefaultPlan()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := trace.New(nil, trace.Config{})
			if _, err := core.RunTrial(core.TrialConfig{Seed: int64(i), Attack: &plan, Bundle: instr.Bundle{Trace: tr}}); err != nil {
				b.Fatal(err)
			}
			if tr.Len() == 0 {
				b.Fatal("traced trial emitted nothing")
			}
		}
	})
}

// --- obs subsystem ---

// BenchmarkObsOverhead measures the metrics registry through a whole
// trial, mirroring BenchmarkTraceOverhead: the unarmed path (nil registry,
// every instrument a nil no-op — the default for everything above), the
// armed instrument hot paths, and a fully metered attack trial against
// BenchmarkTrialFullAttack's unmetered baseline. The per-instrument
// numbers live in internal/obs/bench_test.go; this pins the end-to-end
// cost: an unmetered trial must not regress when the instrumentation is
// compiled in, and a metered trial's overhead stays in the noise because
// the per-trial publish happens once at collect() time, not per packet.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("inc-unarmed", func(b *testing.B) {
		var reg *obs.Registry
		c := reg.Counter("x_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("inc-armed", func(b *testing.B) {
		c := obs.NewRegistry().Counter("x_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("trial-metered", func(b *testing.B) {
		plan := adversary.DefaultPlan()
		reg := obs.NewRegistry()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.RunTrial(core.TrialConfig{Seed: int64(i), Attack: &plan})
			if err != nil {
				b.Fatal(err)
			}
			core.PublishTrialMetrics(reg, res)
		}
		if reg.Snapshot().Families == nil {
			b.Fatal("metered trial published nothing")
		}
	})
}

// --- check subsystem ---

// BenchmarkCheckOverhead mirrors BenchmarkTraceOverhead for the invariant
// checker: the hook hot path with checking off (nil checker, the default
// for every benchmark above) and armed, plus a fully checked attack trial
// against BenchmarkTrialFullAttack's unchecked baseline.
func BenchmarkCheckOverhead(b *testing.B) {
	b.Run("hooks-disabled", func(b *testing.B) {
		var ck *check.Checker
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq := uint64(i) * 1200
			ck.TCPSegment("client", seq, seq+1200, false)
			ck.SchedulerStep(time.Duration(i))
			ck.LinkOffered(check.DirC2S, 1500)
		}
	})
	b.Run("hooks-armed", func(b *testing.B) {
		rec := check.NewRecorder()
		ck := check.New(1, 0, rec)
		ck.TCPRegister("client", 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq := uint64(i) * 1200
			ck.TCPSegment("client", seq, seq+1200, false)
			ck.SchedulerStep(time.Duration(i))
			ck.LinkOffered(check.DirC2S, 1500)
		}
		if rec.Total() != 0 {
			b.Fatalf("benchmark traffic violated invariants:\n%s", rec.Report())
		}
	})
	b.Run("trial-checked", func(b *testing.B) {
		plan := adversary.DefaultPlan()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := check.NewRecorder()
			cfg := core.TrialConfig{Seed: int64(i), Attack: &plan, Bundle: instr.Bundle{Check: check.New(int64(i), 0, rec)}}
			res, err := core.RunTrial(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.CheckViolations != 0 {
				b.Fatalf("checked trial violated invariants:\n%s", rec.Report())
			}
		}
	})
}

// TestDisabledCheckZeroAllocs pins the invariant-checker contract: a nil
// *check.Checker (the default everywhere) makes every hook a nil-receiver
// no-op, so a check-capable build runs the simulation with zero extra
// allocations on every hot path that carries a hook.
func TestDisabledCheckZeroAllocs(t *testing.T) {
	var ck *check.Checker
	if ck.Enabled() {
		t.Fatal("nil checker reported enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ck.TCPSegment("client", 0, 1200, false)
		ck.TCPAck("client", 1200, 1200)
		ck.TCPDeliver("server", 1200)
		ck.TCPRewind("client", 2400, 1200)
		ck.H2FrameSent("client", 0, 1, 1200, 0, 0)
		ck.H2FrameRecv("server", 0, 1, 1200, 0, 0)
		ck.H2DataSent("client", 1, 1200)
		ck.H2AppData("server", 1)
		ck.HpackEncoded("client", 4096)
		ck.HpackDecoded("server", 4096)
		ck.LinkOffered(check.DirC2S, 1500)
		ck.LinkDropped(check.DirC2S, 1500, 0)
		ck.LinkForwarded(check.DirC2S, 1500, false)
		ck.LinkDelivered(check.DirC2S, 1500)
		ck.SchedulerStep(time.Millisecond)
		ck.CaptureAppend(check.DirC2S, 1200, 0, 5, 1200)
		ck.CaptureRecord(check.DirC2S, 600, 600)
	})
	if allocs != 0 {
		t.Fatalf("disabled check path allocates %.1f allocs per op, want 0", allocs)
	}
}

// TestDisabledTraceZeroAllocs pins the design contract: with tracing off
// (nil tracer), the guarded emit pattern every component uses — an
// Enabled()-guarded Emit — allocates nothing, so a trace-capable build benchmarks identically to one without
// the subsystem.
func TestDisabledTraceZeroAllocs(t *testing.T) {
	var tr *trace.Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			tr.Emit(trace.LayerTCP, "rto",
				trace.Str("conn", "client"), trace.Num("retries", 1),
				trace.Dur("rto", time.Second), trace.Num("flight", 14600))
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocates %.1f bytes-producing allocs per op, want 0", allocs)
	}
}

// --- flowseq subsystem ---

// BenchmarkFlowseqOverhead mirrors BenchmarkTraceOverhead for the flow
// event-sequence analyzer: the record/frame hot paths with analytics off
// (nil analyzer, the default for every benchmark above) and armed, plus a
// fully analyzed attack trial against BenchmarkTrialFullAttack's baseline.
func BenchmarkFlowseqOverhead(b *testing.B) {
	b.Run("hooks-disabled", func(b *testing.B) {
		var fl *flowseq.Analyzer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fl.Enabled() {
				fl.Record(i%2 == 0, 1500, 1460, false, false, false)
			}
			if fl.Enabled() {
				fl.H2Frame(true, false, 0x0, 1, 1200, 0)
			}
		}
	})
	b.Run("hooks-armed", func(b *testing.B) {
		fl := flowseq.New(0, flowseq.NewCollector())
		fl.Request("obj", 1, "initial")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fl.Enabled() {
				fl.Record(i%2 == 0, 1500, 1460, false, false, false)
			}
			if fl.Enabled() {
				fl.H2Frame(true, false, 0x0, 1, 1200, 0)
			}
		}
		if ff := fl.Finalize(); len(ff.Streams) != 1 {
			b.Fatal("armed analyzer tracked nothing")
		}
	})
	b.Run("trial-analyzed", func(b *testing.B) {
		plan := adversary.DefaultPlan()
		col := flowseq.NewCollector()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.RunTrial(core.TrialConfig{Seed: int64(i), Attack: &plan, Bundle: instr.Bundle{Flows: flowseq.New(i, col)}})
			if err != nil {
				b.Fatal(err)
			}
			if res.Features == nil || len(res.Features.Streams) == 0 {
				b.Fatal("analyzed trial extracted nothing")
			}
		}
	})
}

// TestDisabledFlowseqZeroAllocs pins the flowseq contract: a nil
// *flowseq.Analyzer (the default everywhere) makes every hook a
// nil-receiver no-op, so a feature-capable build runs the simulation with
// zero extra allocations when -features is off.
func TestDisabledFlowseqZeroAllocs(t *testing.T) {
	var fl *flowseq.Analyzer
	if fl.Enabled() {
		t.Fatal("nil analyzer reported enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		fl.Record(true, 1500, 1460, false, false, false)
		fl.H2Frame(true, true, 0x0, 1, 1200, 0)
		fl.H2Frame(true, false, 0x1, 1, 30, 0x4)
		fl.Request("obj", 1, "initial")
		fl.ObjectDone("obj", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled flowseq path allocates %.1f allocs per op, want 0", allocs)
	}
}
