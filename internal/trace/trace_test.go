package trace

import (
	"bytes"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-advanced Clock for tests.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(LayerTCP, "rto", Num("retries", 1))
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer retained state")
	}
	tr.SetMeta("flow", "f")
	if tr.Metas() != nil {
		t.Fatal("nil tracer kept metadata")
	}
}

func TestEmitStampsClockAndSeq(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk, Config{})
	tr.Emit(LayerNetsim, "a")
	clk.now = 5 * time.Millisecond
	tr.Emit(LayerH2, "b", Str("type", "DATA"), Num("len", 1200))
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].At != 0 || evs[0].Seq != 0 || evs[1].At != 5*time.Millisecond || evs[1].Seq != 1 {
		t.Fatalf("bad stamps: %+v", evs)
	}
	if evs[1].NAttr != 2 || evs[1].Attrs[0].Str != "DATA" || evs[1].Attrs[1].Num != 1200 {
		t.Fatalf("bad attrs: %+v", evs[1])
	}
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk, Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		clk.now = time.Duration(i)
		tr.Emit(LayerNetsim, "e", Num("i", int64(i)))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Attrs[0].Num != want || ev.Seq != uint64(want) {
			t.Fatalf("event %d = %+v, want i=%d (oldest overwritten first)", i, ev, want)
		}
	}
}

func TestAttrOverflowTruncated(t *testing.T) {
	tr := New(&fakeClock{}, Config{})
	tr.Emit(LayerTCP, "x", Num("a", 1), Num("b", 2), Num("c", 3), Num("d", 4), Num("e", 5))
	ev := tr.Events()[0]
	if ev.NAttr != MaxAttrs {
		t.Fatalf("NAttr = %d, want %d", ev.NAttr, MaxAttrs)
	}
}

// buildTrace produces the same small trace twice for determinism checks.
func buildTrace() *Tracer {
	clk := &fakeClock{}
	tr := New(clk, Config{})
	clk.now = 1234567 * time.Nanosecond
	tr.Emit(LayerNetsim, "enqueue", Str("dir", "c->s"), Num("size", 52))
	clk.now = 2 * time.Millisecond
	tr.Emit(LayerAdversary, "phase", Str("to", `jitter+"count"`)) // exercises escaping
	tr.Emit(LayerH2, "send", Str("type", "HEADERS"), Num("stream", 1), Num("len", 43))
	return tr
}

func TestExportsDeterministic(t *testing.T) {
	for _, format := range Formats() {
		var out1, out2 bytes.Buffer
		if err := buildTrace().WriteFormat(&out1, format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := buildTrace().WriteFormat(&out2, format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("%s export not byte-identical across identical runs", format)
		}
		if out1.Len() == 0 {
			t.Fatalf("%s export empty", format)
		}
	}
}

func TestJSONLShape(t *testing.T) {
	var out bytes.Buffer
	if err := buildTrace().WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out.String())
	}
	if want := `{"ts":1234567,"seq":0,"layer":"netsim","kind":"enqueue","attrs":{"dir":"c->s","size":52}}`; lines[0] != want {
		t.Fatalf("line 0 = %s\nwant     %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `jitter+\"count\"`) {
		t.Fatalf("quote not escaped: %s", lines[1])
	}
}

func TestChromeTraceShape(t *testing.T) {
	var out bytes.Buffer
	if err := buildTrace().WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		`"traceEvents":[`,
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"netsim"}}`,
		`"ts":1234.567`, // 1234567 ns as microseconds
		`"ph":"i"`,
		`"displayTimeUnit":"ms"`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("chrome trace missing %q:\n%s", want, s)
		}
	}
}

func TestSummaryContents(t *testing.T) {
	var out bytes.Buffer
	if err := buildTrace().WriteSummary(&out); err != nil {
		t.Fatal(err)
	}
	want := `trace: 3 events retained, 0 dropped (ring capacity)

events by layer/kind:
  netsim     enqueue                       1
  h2         send                          1
  adversary  phase                         1
`
	if got := out.String(); got != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteFormatUnknown(t *testing.T) {
	if err := New(&fakeClock{}, Config{}).WriteFormat(&bytes.Buffer{}, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestConcurrentConfigSmoke(t *testing.T) {
	tr := New(&fakeClock{}, Config{Concurrent: true})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			tr.Emit(LayerH2, "send", Num("i", int64(i)))
		}
		close(done)
	}()
	for i := 0; i < 100; i++ {
		tr.Emit(LayerH2, "recv", Num("i", int64(i)))
	}
	<-done
	if tr.Len() != 200 {
		t.Fatalf("retained %d, want 200", tr.Len())
	}
}

// TestConcurrentExportWhileEmitting exports a concurrent tracer while
// another goroutine overflows its ring. Under -race any unlocked read of
// the ring or its dropped count is reported. Each Chrome export must
// also be one consistent snapshot: with the ring full, the newest
// exported seq is exactly retained + dropped − 1.
func TestConcurrentExportWhileEmitting(t *testing.T) {
	const capacity = 16
	tr := New(&fakeClock{}, Config{Capacity: capacity, Concurrent: true})
	for i := 0; i < capacity; i++ {
		tr.Emit(LayerH2, "fill")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			tr.Emit(LayerH2, "send", Num("i", int64(i)))
		}
	}()
	seqRe := regexp.MustCompile(`"seq":(\d+)`)
	droppedRe := regexp.MustCompile(`"droppedEvents":(\d+)`)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := tr.WriteSummary(io.Discard); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != capacity || tr.Dropped() > 20000 {
			t.Fatalf("Len %d, Dropped %d", tr.Len(), tr.Dropped())
		}
		var b bytes.Buffer
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		seqs := seqRe.FindAllSubmatch(b.Bytes(), -1)
		dropped, _ := strconv.Atoi(string(droppedRe.FindSubmatch(b.Bytes())[1]))
		newest, _ := strconv.Atoi(string(seqs[len(seqs)-1][1]))
		if len(seqs) != capacity || newest != len(seqs)+dropped-1 {
			t.Fatalf("export of %d events, newest seq %d, reports %d dropped: not one snapshot",
				len(seqs), newest, dropped)
		}
	}
}
