// Package h2sync adapts the sans-IO h2 core to blocking I/O over a real
// net.Conn (TCP loopback, net.Pipe, …): a goroutine-per-stream server —
// the "multi-threaded server operation" whose multiplexing the paper
// studies — and a blocking client. Both speak the repository's tlsrec
// record layer beneath HTTP/2, exactly like the simulated endpoints, so
// integration tests can exercise the identical protocol stack over real
// sockets.
package h2sync

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
	"h2privacy/internal/tlsrec"
)

// ErrConnClosed reports use of a finished connection.
var ErrConnClosed = errors.New("h2sync: connection closed")

// peer is the shared transport plumbing: net.Conn → tlsrec → h2, with one
// mutex serializing all h2.Conn access (the sans-IO core is not
// goroutine-safe) and a cond broadcast on flow-control progress.
type peer struct {
	nc  net.Conn
	tls *tlsrec.Conn
	h2c *h2.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	err    error

	// pendingOut buffers h2 output produced before the TLS handshake
	// completes (e.g. the client preface); flushed on establishment.
	pendingOut [][]byte

	// outQueue holds wire bytes awaiting the writer goroutine. Writes
	// never happen on the read path: with synchronous transports
	// (net.Pipe) a write-from-read deadlocks both peers.
	outQueue [][]byte

	wg sync.WaitGroup
}

func newPeer(nc net.Conn, isClient bool, cfg h2.Config, ins instr.Bundle, random [32]byte) (*peer, error) {
	p := &peer{nc: nc}
	p.cond = sync.NewCond(&p.mu)
	p.tls = tlsrec.NewConn(isClient, random, func(b []byte) {
		// Record-layer output is queued for the writer goroutine.
		// Callers hold p.mu.
		cp := make([]byte, len(b))
		copy(cp, b)
		p.outQueue = append(p.outQueue, cp)
		p.cond.Broadcast()
	})
	p.tls.OnEstablished(func() {
		for _, b := range p.pendingOut {
			if err := p.tls.Send(tlsrec.ContentApplicationData, b); err != nil {
				p.failLocked(fmt.Errorf("h2sync: seal: %w", err))
				return
			}
		}
		p.pendingOut = nil
	})
	var err error
	p.h2c, err = h2.NewConn(isClient, cfg, ins, func(b []byte) {
		if !p.tls.Established() {
			cp := make([]byte, len(b))
			copy(cp, b)
			p.pendingOut = append(p.pendingOut, cp)
			return
		}
		if err := p.tls.Send(tlsrec.ContentApplicationData, b); err != nil {
			p.failLocked(fmt.Errorf("h2sync: seal: %w", err))
		}
	})
	if err != nil {
		return nil, err
	}
	p.tls.OnRecord(func(ct tlsrec.ContentType, payload []byte) {
		if ct != tlsrec.ContentApplicationData {
			return
		}
		if err := p.h2c.Feed(payload); err != nil {
			p.failLocked(err)
		}
	})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.writeLoop()
	}()
	return p, nil
}

// writeLoop drains outQueue to the socket in order.
func (p *peer) writeLoop() {
	for {
		p.mu.Lock()
		for len(p.outQueue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.outQueue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		batch := p.outQueue
		p.outQueue = nil
		p.mu.Unlock()
		for _, b := range batch {
			if _, err := p.nc.Write(b); err != nil {
				p.mu.Lock()
				p.failLocked(fmt.Errorf("h2sync: write: %w", err))
				p.mu.Unlock()
				return
			}
		}
	}
}

// failLocked records the first fatal error. Callers hold p.mu (or are on
// the read loop before any waiter could observe a partial state).
func (p *peer) failLocked(err error) {
	if p.err == nil {
		p.err = err
	}
	p.closed = true
	p.cond.Broadcast()
}

// readLoop pumps the socket into the record layer and h2 core. It runs on
// the Serve/Dial caller's goroutine or a tracked goroutine and returns on
// the first transport or protocol error.
func (p *peer) readLoop() error {
	buf := make([]byte, 32<<10)
	for {
		n, err := p.nc.Read(buf)
		if n > 0 {
			p.mu.Lock()
			if ferr := p.tls.Feed(buf[:n]); ferr != nil {
				p.failLocked(ferr)
				p.mu.Unlock()
				return ferr
			}
			if p.err != nil {
				err := p.err
				p.mu.Unlock()
				return err
			}
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		if err != nil {
			p.mu.Lock()
			p.failLocked(err)
			p.mu.Unlock()
			return err
		}
	}
}

// close tears the connection down and waits for handler goroutines.
func (p *peer) close() {
	p.mu.Lock()
	p.failLocked(ErrConnClosed)
	p.mu.Unlock()
	_ = p.nc.Close()
	p.wg.Wait()
}

// writeBody sends p on the stream, blocking on flow control until done or
// the connection dies. Callers must NOT hold p.mu.
func (p *peer) writeBody(s *h2.Stream, body []byte, endStream bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return p.errLocked()
		}
		n, err := s.SendData(body, endStream)
		if err != nil {
			return err
		}
		body = body[n:]
		if len(body) == 0 {
			return nil
		}
		p.cond.Wait() // window opened, connection progressed, or closed
	}
}

func (p *peer) errLocked() error {
	if p.err != nil {
		return p.err
	}
	return ErrConnClosed
}
