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
	"h2privacy/internal/flowseq"
	"h2privacy/internal/h2"
	"h2privacy/internal/h2/h2sync"
	"h2privacy/internal/instr"
	"h2privacy/internal/obs"
	"h2privacy/internal/website"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8443", "listen address")
	var tf cliutil.TraceFlags
	tf.RegisterTrace(flag.CommandLine, "the server's h2-layer trace (written on SIGINT)")
	var df cliutil.DebugFlags
	df.RegisterDebug(flag.CommandLine)
	var cf cliutil.CheckFlags
	cf.RegisterCheck(flag.CommandLine)
	var ffl cliutil.FeatureFlags
	ffl.RegisterFeatures(flag.CommandLine)
	flag.Parse()
	if err := run(*addr, tf, df, cf, ffl); err != nil {
		fmt.Fprintln(os.Stderr, "h2serve:", err)
		os.Exit(1)
	}
}

func run(addr string, tf cliutil.TraceFlags, df cliutil.DebugFlags, cf cliutil.CheckFlags, ffl cliutil.FeatureFlags) error {
	site := website.ISideWith()
	// Real-TCP serving has no virtual clock and one goroutine per stream,
	// so the tracer stamps wall time and takes the mutex path. The trace
	// is best-effort diagnostics here, not a determinism artifact.
	// -debug-addr also arms it, so /debug/trace has a ring to serve.
	tracer, err := tf.NewWallTracer(df.Armed())
	if err != nil {
		return err
	}
	// -check arms the server side of the h2 invariant checks (stream-state
	// legality, flow-control accounting, HPACK table sync on our half).
	// Real connections arrive concurrently and sequentially re-register the
	// same endpoint shadow, so this is best-effort diagnostics for one
	// client at a time — the simulated testbed is where checks are exact.
	rec := cf.NewRecorder()
	var ck *check.Checker
	if rec != nil {
		ck = check.New(0, 0, rec)
		ck.Concurrent()
	}
	// -features/-features-out arm flowseq analytics on the server's frames
	// (forced by -debug-addr so /debug/flows serves live). One concurrent
	// analyzer covers the whole process lifetime: real connections share it,
	// stamped with wall time and the listen address as the flow ID. Here the
	// server's connection is the wired endpoint (the testbed wires the
	// browser's), so direction still resolves correctly.
	fcol := ffl.NewCollector(df.Armed())
	var fl *flowseq.Analyzer
	if fcol != nil {
		fl = flowseq.New(0, fcol)
		fl.Concurrent()
		fl.SetClock(flowseq.WallClock())
		fl.SetFlow(addr)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM closes the listener so
	// ListenAndServe unblocks and the exports below run in the main flow
	// (no more exiting from a signal goroutine mid-write); a second signal
	// force-kills through the restored default handler.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	var reg *obs.Registry
	var mRequests *obs.CounterVec
	if df.Armed() {
		reg = obs.NewRegistry()
		obs.PublishTrace(reg, tracer)
		mRequests = reg.CounterVec("h2privacy_server_requests_total",
			"Requests served, by response status.", "status")
	}
	fcol.PublishTo(reg)
	ds, err := df.Serve(reg, tracer, fcol, os.Stderr, "h2serve")
	if err != nil {
		return err
	}
	if ds != nil {
		defer ds.Close()
	}
	srv := &h2sync.Server{
		Config:      h2.Config{TraceName: "server"},
		Instruments: instr.Bundle{Trace: tracer, Check: ck, Flows: fl},
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
		return err
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
		return serveErr
	}
	fmt.Fprintln(os.Stderr, "h2serve: shutting down")
	if err := tf.Export(tracer, os.Stderr, "h2serve"); err != nil {
		return err
	}
	fl.Finalize()
	if err := ffl.Export(fcol, os.Stderr, "h2serve"); err != nil {
		return err
	}
	ck.Finalize()
	if n, err := cf.Report(rec, os.Stderr, "h2serve"); err != nil {
		return err
	} else if n > 0 {
		os.Exit(1)
	}
	return nil
}
