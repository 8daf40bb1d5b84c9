// Package endpoint implements the event-driven application endpoints of
// the simulated testbed: a multi-threaded HTTP/2 web server serving the
// model website, and a Firefox-like browser driving a request plan. Both
// run sans goroutines on the shared simtime scheduler, wiring
// tcpsim → tlsrec → h2 exactly as h2sync does for real sockets.
//
// The server reproduces the paper's Fig. 3 mechanics: one logical thread
// per stream producing the object in small chunks with random service
// times, so concurrent streams interleave DATA frames (multiplexing),
// while a lone stream transmits serialized. The browser reproduces the
// client behaviours the attack leans on: request scheduling with the
// paper's inter-request gaps, duplicate GETs for stalled responses (the
// "retransmission requests" of §IV-B) and the stall-triggered RST_STREAM
// + re-request cycle of §IV-D.
package endpoint

import (
	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
)

// stack glues one endpoint's TCP, TLS and HTTP/2 layers together.
type stack struct {
	tcp *tcpsim.Conn
	tls *tlsrec.Conn
	h2c *h2.Conn

	// pendingOut holds h2 bytes produced before the TLS handshake
	// completes (the preface/SETTINGS), flushed on establishment.
	pendingOut [][]byte
	// tapH2Out, when set, observes every h2 output frame before sealing
	// (the server's ground-truth transmission log hangs here).
	tapH2Out func([]byte)
	// onEstablished, when set, runs after the TLS handshake completes and
	// the queued h2 preface has been flushed.
	onEstablished func()
	// onFatal reports transport/record/protocol failures upward.
	onFatal func(error)
}

// newStack wires the three layers. isClient selects TLS/h2 roles; rng
// seeds the TLS handshake randomness; h2cfg tunes the HTTP/2 endpoint and
// ins instruments it.
func newStack(tcp *tcpsim.Conn, isClient bool, rng *simtime.Rand, h2cfg h2.Config, ins instr.Bundle, onFatal func(error)) (*stack, error) {
	s := &stack{tcp: tcp, onFatal: onFatal}
	var random [32]byte
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	s.tls = tlsrec.NewConn(isClient, random, func(b []byte) {
		if err := tcp.Write(b); err != nil {
			s.fatal(err)
		}
	})
	var err error
	s.h2c, err = h2.NewConn(isClient, h2cfg, ins, func(b []byte) {
		if s.tapH2Out != nil {
			s.tapH2Out(b)
		}
		if !s.tls.Established() {
			cp := make([]byte, len(b))
			copy(cp, b)
			s.pendingOut = append(s.pendingOut, cp)
			return
		}
		if err := s.tls.Send(tlsrec.ContentApplicationData, b); err != nil {
			s.fatal(err)
		}
	})
	if err != nil {
		return nil, err
	}
	s.tls.OnEstablished(func() {
		for _, b := range s.pendingOut {
			if err := s.tls.Send(tlsrec.ContentApplicationData, b); err != nil {
				s.fatal(err)
				return
			}
		}
		s.pendingOut = nil
		if s.onEstablished != nil {
			s.onEstablished()
		}
	})
	s.tls.OnRecord(func(ct tlsrec.ContentType, payload []byte) {
		if ct != tlsrec.ContentApplicationData {
			return
		}
		if err := s.h2c.Feed(payload); err != nil {
			s.fatal(err)
		}
	})
	tcp.OnData(func(b []byte) {
		if err := s.tls.Feed(b); err != nil {
			s.fatal(err)
		}
	})
	return s, nil
}

func (s *stack) fatal(err error) {
	if s.onFatal != nil {
		s.onFatal(err)
	}
}
