package h2sync

import (
	"fmt"
	"net"
	"sync"

	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
)

// Request is a decoded HTTP/2 request.
type Request struct {
	Method    string
	Path      string
	Authority string
	Header    []h2.HeaderField
	Body      []byte
	StreamID  uint32
}

// ResponseWriter lets a handler stream its response. Write blocks on flow
// control, which is what makes concurrent handlers interleave DATA frames
// — the multiplexing at the heart of the paper.
type ResponseWriter struct {
	peer   *peer
	stream *h2.Stream

	mu          sync.Mutex
	wroteHeader bool
	finished    bool
}

// WriteHeader sends the response HEADERS with the given status and extra
// fields. Calling it twice is an error.
func (w *ResponseWriter) WriteHeader(status int, fields ...h2.HeaderField) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.wroteHeader {
		return fmt.Errorf("h2sync: WriteHeader called twice")
	}
	w.wroteHeader = true
	all := append([]h2.HeaderField{{Name: ":status", Value: fmt.Sprintf("%d", status)}}, fields...)
	w.peer.mu.Lock()
	defer w.peer.mu.Unlock()
	if w.peer.closed {
		return w.peer.errLocked()
	}
	return w.stream.SendHeaders(all, false)
}

// Write streams body bytes (sending 200 headers first if none were sent),
// blocking until flow control accepts everything.
func (w *ResponseWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	if !w.wroteHeader {
		w.mu.Unlock()
		if err := w.WriteHeader(200); err != nil {
			return 0, err
		}
		w.mu.Lock()
	}
	if w.finished {
		w.mu.Unlock()
		return 0, fmt.Errorf("h2sync: Write after Finish")
	}
	w.mu.Unlock()
	if err := w.peer.writeBody(w.stream, p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Finish ends the stream (END_STREAM on an empty DATA frame).
func (w *ResponseWriter) Finish() error {
	w.mu.Lock()
	if !w.wroteHeader {
		w.mu.Unlock()
		if err := w.WriteHeader(200); err != nil {
			return err
		}
		w.mu.Lock()
	}
	if w.finished {
		w.mu.Unlock()
		return nil
	}
	w.finished = true
	w.mu.Unlock()
	return w.peer.writeBody(w.stream, nil, true)
}

// HandlerFunc serves one request. It runs on its own goroutine — one
// "server thread" per stream, as in the paper's Fig. 3.
type HandlerFunc func(w *ResponseWriter, r *Request)

// reqState tracks request assembly on a stream's UserData slot.
type reqState struct {
	req  *Request
	seen bool
}

// Server serves HTTP/2 (over tlsrec) connections.
type Server struct {
	// Handler serves each request; required.
	Handler HandlerFunc
	// Config tunes the h2 endpoint.
	Config h2.Config
	// Instruments arms every served connection's h2 endpoint.
	Instruments instr.Bundle
	// Random seeds the TLS handshake; zero is fine for tests.
	Random [32]byte
}

// Serve handles one connection, blocking until it ends. The returned error
// is the terminal condition (io.EOF-wrapped for orderly remote close).
func (s *Server) Serve(nc net.Conn) error {
	if s.Handler == nil {
		return fmt.Errorf("h2sync: Server requires a Handler")
	}
	p, err := newPeer(nc, false, s.Config, s.Instruments, s.Random)
	if err != nil {
		return err
	}
	p.h2c.SetHandlers(h2.Handlers{
		OnStreamHeaders: func(st *h2.Stream, fields []h2.HeaderField, endStream bool) {
			req := &Request{StreamID: st.ID()}
			for _, f := range fields {
				switch f.Name {
				case ":method":
					req.Method = f.Value
				case ":path":
					req.Path = f.Value
				case ":authority":
					req.Authority = f.Value
				default:
					req.Header = append(req.Header, f)
				}
			}
			st.UserData = &reqState{req: req}
			if endStream {
				s.dispatch(p, st, req)
			}
		},
		OnStreamData: func(st *h2.Stream, data []byte, endStream bool) {
			rs, ok := st.UserData.(*reqState)
			if !ok {
				return
			}
			rs.req.Body = append(rs.req.Body, data...)
			if endStream && !rs.seen {
				s.dispatch(p, st, rs.req)
			}
		},
		OnStreamReset: func(st *h2.Stream, code h2.ErrCode, remote bool) {
			// Handler writes will fail; nothing else to flush here.
		},
	})
	p.mu.Lock()
	p.tls.Start()
	p.h2c.Start()
	p.mu.Unlock()
	err = p.readLoop()
	p.close()
	return err
}

func (s *Server) dispatch(p *peer, st *h2.Stream, req *Request) {
	if rs, ok := st.UserData.(*reqState); ok {
		rs.seen = true
	}
	w := &ResponseWriter{peer: p, stream: st}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s.Handler(w, req)
		_ = w.Finish()
	}()
}

// ListenAndServe accepts connections on l and serves each on its own
// goroutine until l.Close. It returns the Accept error that stopped it.
func (s *Server) ListenAndServe(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Serve(nc)
		}()
	}
}
