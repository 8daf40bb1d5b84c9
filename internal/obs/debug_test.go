package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"h2privacy/internal/trace"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := buildGoldenRegistry()
	tr := trace.New(nil, trace.Config{})
	tr.Emit(trace.LayerAdversary, "phase", trace.Str("to", "throttle+drop"))

	ds := &DebugServer{Registry: reg, Tracer: tr}
	srv := httptest.NewServer(ds.Handler())
	defer srv.Close()

	// /metrics serves exposition text the golden parser accepts; the
	// tracer's events are served by /debug/trace, not mirrored here.
	code, body, hdr := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	if _, err := LintExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics output rejected by golden parser: %v\n%s", err, body)
	}
	if !strings.Contains(body, "h2privacy_trials_total 100") || strings.Contains(body, "h2privacy_trace") {
		t.Fatalf("/metrics must carry the registry's families and nothing of the tracer:\n%s", body)
	}

	// JSON variant.
	code, body, hdr = get(t, srv, "/metrics?format=json")
	if code != 200 || !strings.Contains(body, `"kind": "counter"`) {
		t.Fatalf("/metrics?format=json = %d:\n%s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("json content-type = %q", ct)
	}

	if code, body, _ = get(t, srv, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	if code, body, _ = get(t, srv, "/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars = %d", code)
	}
	// The host-environment vars that contextualize any perf figure scraped
	// off this process.
	for _, want := range []string{`"gomaxprocs":`, `"numcpu":`, `"goversion":`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/vars missing %s:\n%s", want, body)
		}
	}

	if code, body, _ = get(t, srv, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	// Trace ring download, all three formats plus a bad one.
	if code, body, _ = get(t, srv, "/debug/trace"); code != 200 || !strings.HasPrefix(body, "trace: 1 events retained") {
		t.Fatalf("/debug/trace = %d %q", code, body)
	}
	if code, body, _ = get(t, srv, "/debug/trace?format=jsonl"); code != 200 || !strings.Contains(body, `"kind":"phase"`) {
		t.Fatalf("/debug/trace?format=jsonl = %d %q", code, body)
	}
	if code, body, _ = get(t, srv, "/debug/trace?format=chrome"); code != 200 || !strings.Contains(body, "traceEvents") {
		t.Fatalf("/debug/trace?format=chrome = %d", code)
	}
	if code, _, _ = get(t, srv, "/debug/trace?format=nope"); code != 400 {
		t.Fatalf("bad trace format = %d, want 400", code)
	}
}

func TestDebugServerUnarmedTrace(t *testing.T) {
	ds := &DebugServer{Registry: NewRegistry()}
	srv := httptest.NewServer(ds.Handler())
	defer srv.Close()
	if code, _, _ := get(t, srv, "/debug/trace"); code != 404 {
		t.Fatalf("/debug/trace without tracer = %d, want 404", code)
	}
	// /metrics still works with an empty registry; so does a nil one.
	if code, _, _ := get(t, srv, "/metrics"); code != 200 {
		t.Fatalf("/metrics on empty registry = %d", code)
	}
	nilSrv := httptest.NewServer((&DebugServer{}).Handler())
	defer nilSrv.Close()
	if code, body, _ := get(t, nilSrv, "/metrics"); code != 200 || body != "" {
		t.Fatalf("/metrics on nil registry = %d %q", code, body)
	}
}

func TestDebugServerStartClose(t *testing.T) {
	ds := &DebugServer{Registry: NewRegistry()}
	addr, err := ds.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz over real listener = %d", resp.StatusCode)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
}
