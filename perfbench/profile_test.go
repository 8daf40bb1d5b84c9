package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestInnermostRepoFrameWins(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/sha256.block", "crypto/sha256.(*digest).Write",
			"h2privacy/internal/tlsrec.(*Conn).keystream", "h2privacy/internal/h2.(*Conn).writeFrame",
			"h2privacy/internal/simtime.(*Scheduler).Step", "main.main"}, "tlsrec"},
		{[]string{"container/heap.down", "container/heap.Pop",
			"h2privacy/internal/simtime.(*Scheduler).Step", "h2privacy/internal/core.(*Testbed).Run"}, "simtime"},
		{[]string{"h2privacy/internal/hpack.(*Encoder).WriteField", "h2privacy/internal/endpoint.(*Server).step"}, "h2"},
		{[]string{"h2privacy/internal/h2/h2sync.(*Conn).Read"}, "h2"},
		{[]string{"h2privacy/internal/check/prop.Run"}, "instruments"},
		{[]string{"runtime.mallocgc", "h2privacy/internal/core.runFleetTrial.func1"}, "core"},
		{[]string{"h2privacy/internal/metrics.DegreeOfMultiplexing", "h2privacy/internal/core.(*Testbed).collectCapture"}, "predict"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, otherLayer},
		{[]string{"main.outcomeOf", "main.main"}, otherLayer},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestRuntimeGCGoesToGCLayer(t *testing.T) {
	for _, stack := range [][]string{
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"},
		{"runtime.(*sweepLocked).sweep", "runtime.sweepone", "runtime.bgsweep"},
		// A mark assist charged to an allocating repo frame is still GC work.
		{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"h2privacy/internal/tcpsim.(*Sender).send"},
	} {
		if got := sampleLayer(stack); got != gcLayer {
			t.Errorf("sampleLayer(%v) = %q, want %q", stack, got, gcLayer)
		}
	}
}

func TestSharesSumTo100(t *testing.T) {
	samples := []sample{
		{[]string{"h2privacy/internal/tlsrec.seal"}, 30e6},
		{[]string{"h2privacy/internal/simtime.(*Scheduler).Step"}, 20e6},
		{[]string{"runtime.gcBgMarkWorker"}, 10e6},
		{[]string{"runtime.futex"}, 3e6},
		{[]string{"h2privacy/internal/predict.(*Analyzer).Bursts", "main.retimeCapture"}, 50e6},
	}
	byLayer := attribute(samples, "main.retimeCapture")
	if byLayer["predict"] != 0 {
		t.Errorf("re-timing samples were attributed: predict = %d ns", byLayer["predict"])
	}
	sh := shares(byLayer)
	if len(sh) != len(layers) {
		t.Fatalf("shares has %d layers, want %d", len(sh), len(layers))
	}
	var total float64
	for _, l := range layers {
		total += sh[l]
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", total)
	}
	if want := 100 * 30.0 / 63; math.Abs(sh["tlsrec"]-want) > 1e-9 {
		t.Errorf("tlsrec share %v, want %v", sh["tlsrec"], want)
	}
	for l, v := range shares(nil) {
		if v != 0 {
			t.Errorf("empty profile: %s share %v, want 0", l, v)
		}
	}
}

// encoder builds protobuf messages for the synthetic profile test.
type encoder struct{ b []byte }

func (e *encoder) varint(num int, v uint64) *encoder {
	e.b = binary.AppendUvarint(e.b, uint64(num)<<3)
	e.b = binary.AppendUvarint(e.b, v)
	return e
}

func (e *encoder) bytes(num int, p []byte) *encoder {
	e.b = binary.AppendUvarint(e.b, uint64(num)<<3|2)
	e.b = binary.AppendUvarint(e.b, uint64(len(p)))
	e.b = append(e.b, p...)
	return e
}

func (e *encoder) msg(num int, m *encoder) *encoder { return e.bytes(num, m.b) }

func TestParseProfileExpandsInlinedFrames(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"container/heap.Pop", "h2privacy/internal/simtime.(*Scheduler).Step", "main.main"}
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	p := &encoder{}
	p.msg(1, (&encoder{}).varint(1, 1).varint(2, 2))
	p.msg(1, (&encoder{}).varint(1, 3).varint(2, 4))
	// Unpacked location ids, packed values.
	p.msg(2, (&encoder{}).varint(1, 1).varint(1, 2).bytes(2, packed(1, 10_000_000)))
	// Location 1 holds an inlined call: heap.Pop inlined into Step.
	p.msg(4, (&encoder{}).varint(1, 1).
		msg(4, (&encoder{}).varint(1, 10)).
		msg(4, (&encoder{}).varint(1, 11)))
	p.msg(4, (&encoder{}).varint(1, 2).msg(4, (&encoder{}).varint(1, 12)))
	p.msg(5, (&encoder{}).varint(1, 10).varint(2, 5))
	p.msg(5, (&encoder{}).varint(1, 11).varint(2, 6))
	p.msg(5, (&encoder{}).varint(1, 12).varint(2, 7))
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	want := []string{"container/heap.Pop", "h2privacy/internal/simtime.(*Scheduler).Step", "main.main"}
	if got := samples[0].stack; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stack %v, want %v", got, want)
	}
	if samples[0].cpuNS != 10_000_000 {
		t.Errorf("cpu %d ns, want 10000000", samples[0].cpuNS)
	}
	if got := sampleLayer(samples[0].stack); got != "simtime" {
		t.Errorf("layer %q, want simtime", got)
	}
}

var burnSink uint64

//go:noinline
func burnCPU(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	burnSink = x
}

func TestParseRuntimeCPUProfile(t *testing.T) {
	prof, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	burnCPU(300 * time.Millisecond)
	samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	var burn int64
	for _, s := range samples {
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".burnCPU") {
			burn += s.cpuNS
		}
	}
	if burn < int64(100*time.Millisecond) {
		t.Errorf("profile attributes %v to burnCPU over a 300ms burn", time.Duration(burn))
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json lists %s (%s)",
					what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
}
