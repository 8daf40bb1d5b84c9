package h2sync

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
	"h2privacy/internal/trace"
)

// startPair wires a Server and Client over the given pair of conns and
// returns the client plus a cleanup.
func startPair(t *testing.T, handler HandlerFunc, serverConn, clientConn net.Conn) *Client {
	t.Helper()
	srv := &Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(serverConn)
	}()
	var random [32]byte
	random[0] = 1
	cli, err := NewClient(clientConn, h2.Config{}, random)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		_ = serverConn.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("server goroutine leaked")
		}
	})
	return cli
}

func echoHandler(w *ResponseWriter, r *Request) {
	if r.Path == "/missing" {
		_ = w.WriteHeader(404)
		return
	}
	_ = w.WriteHeader(200, h2.HeaderField{Name: "content-type", Value: "text/plain"})
	_, _ = w.Write([]byte("path=" + r.Path))
}

func TestGetOverNetPipe(t *testing.T) {
	sc, cc := net.Pipe()
	cli := startPair(t, echoHandler, sc, cc)
	resp, err := cli.Get("example.test", "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "path=/hello" {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
}

func TestGetOverTCPLoopback(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srvErr := make(chan error, 1)
	srv := &Server{Handler: echoHandler}
	go func() { srvErr <- srv.ListenAndServe(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var random [32]byte
	random[1] = 2
	cli, err := NewClient(nc, h2.Config{}, random)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.Get("example.test", "/tcp")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "path=/tcp" {
		t.Fatalf("body = %q", resp.Body)
	}
	cli.Close() // ListenAndServe waits for live connections to finish
	_ = l.Close()
	select {
	case <-srvErr:
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not stop")
	}
}

func TestStatusPropagation(t *testing.T) {
	sc, cc := net.Pipe()
	cli := startPair(t, echoHandler, sc, cc)
	resp, err := cli.Get("example.test", "/missing")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestConcurrentRequestsMultiplex(t *testing.T) {
	// Handlers stall until all three requests have arrived, proving the
	// server runs them concurrently on one connection.
	var mu sync.Mutex
	arrived := 0
	allIn := make(chan struct{})
	handler := func(w *ResponseWriter, r *Request) {
		mu.Lock()
		arrived++
		if arrived == 3 {
			close(allIn)
		}
		mu.Unlock()
		select {
		case <-allIn:
		case <-time.After(5 * time.Second):
			_ = w.WriteHeader(500)
			return
		}
		_, _ = w.Write([]byte(strings.Repeat(r.Path[1:2], 50_000)))
	}
	sc, cc := net.Pipe()
	cli := startPair(t, handler, sc, cc)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	bodies := make([]string, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Get("example.test", fmt.Sprintf("/%c", 'a'+i))
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i] = string(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := strings.Repeat(string(rune('a'+i)), 50_000)
		if bodies[i] != want {
			t.Fatalf("request %d: wrong body (%d bytes)", i, len(bodies[i]))
		}
	}
}

func TestLargeBodyFlowControl(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 64<<10/16*20) // 1.25 MiB
	handler := func(w *ResponseWriter, r *Request) {
		_, _ = w.Write(big)
	}
	sc, cc := net.Pipe()
	cli := startPair(t, handler, sc, cc)
	resp, err := cli.Get("example.test", "/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, big) {
		t.Fatalf("body corrupted: %d bytes, want %d", len(resp.Body), len(big))
	}
}

func TestRequestTimeoutResetsStream(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	handler := func(w *ResponseWriter, r *Request) {
		<-block // never responds in time
	}
	sc, cc := net.Pipe()
	cli := startPair(t, handler, sc, cc)
	cli.Timeout = 200 * time.Millisecond
	if _, err := cli.Get("example.test", "/stall"); err == nil {
		t.Fatal("stalled request did not time out")
	}
}

func TestSequentialRequestsReuseConnection(t *testing.T) {
	sc, cc := net.Pipe()
	cli := startPair(t, echoHandler, sc, cc)
	for i := 0; i < 10; i++ {
		resp, err := cli.Get("example.test", fmt.Sprintf("/seq/%d", i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if want := fmt.Sprintf("path=/seq/%d", i); string(resp.Body) != want {
			t.Fatalf("request %d: body %q", i, resp.Body)
		}
	}
}

func TestGetAfterCloseFails(t *testing.T) {
	sc, cc := net.Pipe()
	srv := &Server{Handler: echoHandler}
	go func() { _ = srv.Serve(sc) }()
	var random [32]byte
	cli, err := NewClient(cc, h2.Config{}, random)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if _, err := cli.Get("example.test", "/x"); err == nil {
		t.Fatal("Get succeeded on closed client")
	}
}

func TestServerRequiresHandler(t *testing.T) {
	srv := &Server{}
	sc, cc := net.Pipe()
	defer sc.Close()
	defer cc.Close()
	if err := srv.Serve(sc); err == nil {
		t.Fatal("Serve without handler succeeded")
	}
}

func TestRequestHeadersDelivered(t *testing.T) {
	var gotUA string
	var gotMethod, gotAuthority string
	handler := func(w *ResponseWriter, r *Request) {
		gotMethod, gotAuthority = r.Method, r.Authority
		for _, f := range r.Header {
			if f.Name == "user-agent" {
				gotUA = f.Value
			}
		}
		_, _ = w.Write([]byte("ok"))
	}
	sc, cc := net.Pipe()
	srv := &Server{Handler: handler}
	go func() { _ = srv.Serve(sc) }()
	var random [32]byte
	cli, err := NewClient(cc, h2.Config{}, random)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Use the low-level API to add a custom header.
	pr := &pendingResp{done: make(chan error, 1)}
	cli.peer.mu.Lock()
	st, err := cli.peer.h2c.OpenStream([]h2.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "hdr.test"},
		{Name: ":path", Value: "/h"},
		{Name: "user-agent", Value: "h2privacy-test"},
	}, true, h2.PriorityParam{})
	if err != nil {
		cli.peer.mu.Unlock()
		t.Fatal(err)
	}
	st.UserData = pr
	cli.peer.mu.Unlock()
	select {
	case err := <-pr.done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	if gotUA != "h2privacy-test" || gotMethod != "GET" || gotAuthority != "hdr.test" {
		t.Fatalf("ua=%q method=%q authority=%q", gotUA, gotMethod, gotAuthority)
	}
}

func TestManySequentialClients(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := &Server{Handler: echoHandler}
	go func() { _ = srv.ListenAndServe(l) }()
	for i := 0; i < 5; i++ {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var random [32]byte
		random[0] = byte(i)
		cli, err := NewClient(nc, h2.Config{}, random)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cli.Get("example.test", fmt.Sprintf("/conn/%d", i))
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		if want := fmt.Sprintf("path=/conn/%d", i); string(resp.Body) != want {
			t.Fatalf("conn %d body %q", i, resp.Body)
		}
		cli.Close()
		_ = nc.Close()
	}
}

func TestParallelClientsShareServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := &Server{Handler: echoHandler}
	go func() { _ = srv.ListenAndServe(l) }()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer nc.Close()
			var random [32]byte
			random[1] = byte(i)
			cli, err := NewClient(nc, h2.Config{}, random)
			if err != nil {
				errs[i] = err
				return
			}
			defer cli.Close()
			for j := 0; j < 5; j++ {
				if _, err := cli.Get("example.test", fmt.Sprintf("/p/%d/%d", i, j)); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestResponseHeadersExposed(t *testing.T) {
	handler := func(w *ResponseWriter, r *Request) {
		_ = w.WriteHeader(200, h2.HeaderField{Name: "content-type", Value: "text/html"},
			h2.HeaderField{Name: "x-custom", Value: "yes"})
		_, _ = w.Write([]byte("ok"))
	}
	sc, cc := net.Pipe()
	cli := startPair(t, handler, sc, cc)
	resp, err := cli.Get("example.test", "/hdr")
	if err != nil {
		t.Fatal(err)
	}
	var custom string
	for _, f := range resp.Header {
		if f.Name == "x-custom" {
			custom = f.Value
		}
	}
	if custom != "yes" {
		t.Fatalf("headers = %+v", resp.Header)
	}
}

func TestWriteHeaderTwiceFails(t *testing.T) {
	done := make(chan error, 1)
	handler := func(w *ResponseWriter, r *Request) {
		_ = w.WriteHeader(200)
		done <- w.WriteHeader(500)
	}
	sc, cc := net.Pipe()
	cli := startPair(t, handler, sc, cc)
	if _, err := cli.Get("example.test", "/twice"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("second WriteHeader succeeded")
	}
}

// TestConcurrentTracer runs a traced server under the goroutine-per-stream
// stack: the wall-clock tracer with Config.Concurrent must survive parallel
// streams (the race detector checks the mutex path) and record frames from
// every connection into one stream.
func TestConcurrentTracer(t *testing.T) {
	tr := trace.New(trace.WallClock(), trace.Config{Concurrent: true})
	sc, cc := net.Pipe()
	srv := &Server{
		Config:      h2.Config{TraceName: "server"},
		Instruments: instr.Bundle{Trace: tr},
		Handler:     echoHandler,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(sc)
	}()
	var random [32]byte
	random[2] = 3
	cli, err := NewClient(cc, h2.Config{}, random)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cli.Get("example.test", fmt.Sprintf("/obj-%d", i))
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			if resp.Status != 200 {
				t.Errorf("get %d: status %d", i, resp.Status)
			}
		}()
	}
	wg.Wait()
	cli.Close()
	_ = sc.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server goroutine leaked")
	}
	if tr.Len() == 0 {
		t.Fatal("traced server recorded no events")
	}
	var sends, recvs int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case "send":
			sends++
		case "recv":
			recvs++
		}
	}
	if sends == 0 || recvs == 0 {
		t.Fatalf("send/recv events = %d/%d, want both > 0", sends, recvs)
	}
	var buf bytes.Buffer
	if err := tr.WriteFormat(&buf, trace.FormatSummary); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "h2") {
		t.Fatal("summary missing h2 layer")
	}
}
