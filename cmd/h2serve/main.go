// Command h2serve serves the model website over real TCP with the
// repository's HTTP/2 stack (tlsrec + h2 + goroutine-per-stream server).
// Poke it with examples/realtcp's client or any same-stack client.
//
//	h2serve [-addr 127.0.0.1:8443] [-trace out.json] [-trace-format chrome|jsonl|summary]
//	        [-features] [-features-out features.jsonl] [-debug-addr :9090]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"h2privacy/internal/check"
	"h2privacy/internal/cliutil"
	"h2privacy/internal/experiment"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/h2"
	"h2privacy/internal/h2/h2sync"
	"h2privacy/internal/instr"
	"h2privacy/internal/obs"
	"h2privacy/internal/website"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8443", "listen address")
	h := cliutil.Harness{Tool: "h2serve", TraceWhat: "the server's h2-layer trace (written on SIGINT)", Server: true}
	h.Register(flag.CommandLine)
	flag.Parse()
	code, err := run(*addr, &h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2serve:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(addr string, h *cliutil.Harness) (int, error) {
	site := website.ISideWith()
	// Real-TCP serving has no virtual clock and one goroutine per stream,
	// so the harness's server tracer stamps wall time and takes the mutex
	// path. The trace is best-effort diagnostics here, not a determinism
	// artifact.
	var ins experiment.Options
	if err := h.Arm(&ins); err != nil {
		return 0, err
	}
	// -check arms the server side of the h2 invariant checks (stream-state
	// legality, flow-control accounting, HPACK table sync on our half).
	// Real connections arrive concurrently and sequentially re-register the
	// same endpoint shadow, so this is best-effort diagnostics for one
	// client at a time — the simulated testbed is where checks are exact.
	var ck *check.Checker
	if ins.Check != nil {
		ck = check.New(0, 0, ins.Check)
		ck.Concurrent()
	}
	// Feature extraction runs on the server's frames. One concurrent
	// analyzer covers the whole process lifetime: real connections share it,
	// stamped with wall time and the listen address as the flow ID. Here the
	// server's connection is the wired endpoint (the testbed wires the
	// browser's), so direction still resolves correctly.
	var fl *flowseq.Analyzer
	if ins.Features != nil {
		fl = flowseq.New(0, ins.Features)
		fl.Concurrent()
		fl.SetClock(flowseq.WallClock())
		fl.SetFlow(addr)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM closes the listener so
	// ListenAndServe unblocks and Finish runs in the main flow; a second
	// signal force-kills through the restored default handler.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	var mRequests *obs.CounterVec
	if ins.Metrics != nil {
		mRequests = ins.Metrics.CounterVec("h2privacy_server_requests_total",
			"Requests served, by response status.", "status")
	}
	srv := &h2sync.Server{
		Config:      h2.Config{TraceName: "server"},
		Instruments: instr.Bundle{Trace: ins.Trace, Check: ck, Flows: fl},
		Handler: func(w *h2sync.ResponseWriter, r *h2sync.Request) {
			obj := site.Lookup(r.Path)
			if obj == nil {
				mRequests.With("404").Inc()
				_ = w.WriteHeader(404)
				return
			}
			mRequests.With("200").Inc()
			_ = w.WriteHeader(200, h2.HeaderField{Name: "content-type", Value: obj.Type})
			_, _ = w.Write(site.Body(obj))
		},
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return 0, err
	}
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	fmt.Printf("serving %s (%d objects) on %s\n", site.Host, len(site.Objects), l.Addr())
	fmt.Println("objects:")
	for _, o := range site.Objects {
		fmt.Printf("  %-40s %7d bytes\n", o.Path, o.Size)
	}
	serveErr := srv.ListenAndServe(l)
	if ctx.Err() == nil {
		return 0, serveErr
	}
	fmt.Fprintln(os.Stderr, "h2serve: shutting down")
	fl.Finalize()
	ck.Finalize()
	return h.Finish(false, nil), nil
}
