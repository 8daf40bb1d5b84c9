package h2sync

import (
	"fmt"
	"net"
	"time"

	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
)

// Response is a completed HTTP/2 response.
type Response struct {
	Status int
	Header []h2.HeaderField
	Body   []byte
}

// pendingResp accumulates a response until END_STREAM.
type pendingResp struct {
	resp Response
	done chan error // buffered(1); receives nil or a terminal error
}

// Client is a blocking HTTP/2 client over one connection. Get may be
// called from many goroutines concurrently; requests multiplex onto the
// single connection.
type Client struct {
	peer *peer
	// Timeout bounds each Get (default 10 s).
	Timeout time.Duration
}

// NewClient starts a client on nc. The returned client owns a background
// read goroutine that lives until Close.
func NewClient(nc net.Conn, cfg h2.Config, random [32]byte) (*Client, error) {
	p, err := newPeer(nc, true, cfg, instr.Bundle{}, random)
	if err != nil {
		return nil, err
	}
	c := &Client{peer: p, Timeout: 10 * time.Second}
	p.h2c.SetHandlers(h2.Handlers{
		OnStreamHeaders: func(st *h2.Stream, fields []h2.HeaderField, endStream bool) {
			pr, ok := st.UserData.(*pendingResp)
			if !ok {
				return
			}
			for _, f := range fields {
				if f.Name == ":status" {
					fmt.Sscanf(f.Value, "%d", &pr.resp.Status)
				} else {
					pr.resp.Header = append(pr.resp.Header, f)
				}
			}
			if endStream {
				pr.done <- nil
			}
		},
		OnStreamData: func(st *h2.Stream, data []byte, endStream bool) {
			pr, ok := st.UserData.(*pendingResp)
			if !ok {
				return
			}
			pr.resp.Body = append(pr.resp.Body, data...)
			if endStream {
				pr.done <- nil
			}
		},
		OnStreamReset: func(st *h2.Stream, code h2.ErrCode, remote bool) {
			if pr, ok := st.UserData.(*pendingResp); ok {
				pr.done <- fmt.Errorf("h2sync: stream reset: %v", code)
			}
		},
	})
	p.mu.Lock()
	p.tls.Start()
	p.h2c.Start()
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.readLoop()
	}()
	return c, nil
}

// Get performs a GET for path against authority and waits for the
// complete response.
func (c *Client) Get(authority, path string) (*Response, error) {
	fields := []h2.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: authority},
		{Name: ":path", Value: path},
	}
	pr := &pendingResp{done: make(chan error, 1)}
	c.peer.mu.Lock()
	if c.peer.closed {
		err := c.peer.errLocked()
		c.peer.mu.Unlock()
		return nil, err
	}
	st, err := c.peer.h2c.OpenStream(fields, true, h2.PriorityParam{})
	if err != nil {
		c.peer.mu.Unlock()
		return nil, err
	}
	st.UserData = pr
	c.peer.mu.Unlock()

	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-pr.done:
		if err != nil {
			return nil, err
		}
		return &pr.resp, nil
	case <-timer.C:
		c.peer.mu.Lock()
		st.Reset(h2.ErrCodeCancel)
		c.peer.mu.Unlock()
		return nil, fmt.Errorf("h2sync: request %s timed out after %v", path, timeout)
	}
}

// Close tears down the connection and joins the read goroutine.
func (c *Client) Close() { c.peer.close() }
