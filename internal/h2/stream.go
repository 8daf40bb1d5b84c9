package h2

import (
	"fmt"

	"h2privacy/internal/trace"
)

// StreamState is the RFC 7540 §5.1 stream lifecycle state.
type StreamState int

// Stream states.
const (
	StreamIdle StreamState = iota + 1
	StreamReservedLocal
	StreamReservedRemote
	StreamOpen
	StreamHalfClosedLocal
	StreamHalfClosedRemote
	StreamClosed
)

// String names the state.
func (s StreamState) String() string {
	switch s {
	case StreamIdle:
		return "idle"
	case StreamReservedLocal:
		return "reserved-local"
	case StreamReservedRemote:
		return "reserved-remote"
	case StreamOpen:
		return "open"
	case StreamHalfClosedLocal:
		return "half-closed-local"
	case StreamHalfClosedRemote:
		return "half-closed-remote"
	case StreamClosed:
		return "closed"
	default:
		return "state?"
	}
}

// Stream is one HTTP/2 stream on a Conn. Streams are created by
// Conn.OpenStream (locally) or arrive via the OnStreamHeaders /
// OnPushPromise handlers (remotely).
type Stream struct {
	conn  *Conn
	id    uint32
	state StreamState
	prio  PriorityParam

	sendWindow int64 // how much DATA we may still send
	recvWindow int64 // how much DATA the peer may still send
	refused    bool  // over MaxConcurrentStreams: reset after HPACK decode
	orphan     bool  // closed/unknown stream: decode header blocks, deliver nothing

	// UserData is a free slot for the application's per-stream state
	// (e.g. the server's handler or the browser's pending fetch).
	UserData any
}

// ID returns the stream identifier.
func (s *Stream) ID() uint32 { return s.id }

// State returns the current lifecycle state.
func (s *Stream) State() StreamState { return s.state }

// Priority returns the most recent priority parameter seen for the stream.
func (s *Stream) Priority() PriorityParam { return s.prio }

// SendWindow reports how many DATA bytes flow control currently allows on
// this stream (the connection window binds separately).
func (s *Stream) SendWindow() int {
	w := s.sendWindow
	if cw := s.conn.sendWindow; cw < w {
		w = cw
	}
	if w < 0 {
		w = 0
	}
	return int(w)
}

// canSendData reports whether the state admits sending DATA/HEADERS.
func (s *Stream) canSendData() bool {
	return s.state == StreamOpen || s.state == StreamHalfClosedRemote
}

// SendHeaders sends a HEADERS block on the stream (response headers, or
// trailers when endStream is set). For a reserved (pushed) stream this is
// the promised response.
func (s *Stream) SendHeaders(fields []HeaderField, endStream bool) error {
	switch s.state {
	case StreamReservedLocal:
		s.state = StreamHalfClosedRemote
	case StreamOpen, StreamHalfClosedRemote:
	default:
		return fmt.Errorf("h2: SendHeaders on %v stream %d", s.state, s.id)
	}
	s.conn.sendHeaderBlock(s.id, fields, endStream, PriorityParam{})
	if endStream {
		s.localClose()
	}
	return nil
}

// SendData transmits as much of p as flow control and the peer's frame
// size allow, returning the number of bytes consumed. endStream is applied
// only when the final byte of p is sent. When n < len(p), the caller
// retries after OnWindowAvailable fires.
func (s *Stream) SendData(p []byte, endStream bool) (int, error) {
	if !s.canSendData() {
		return 0, fmt.Errorf("h2: SendData on %v stream %d", s.state, s.id)
	}
	if len(p) == 0 && endStream {
		s.conn.emitFrame(FrameData, s.id, func(dst []byte) []byte {
			return AppendData(dst, s.id, nil, true, s.conn.padFor(0))
		})
		s.localClose()
		return 0, nil
	}
	sent := 0
	for sent < len(p) {
		chunk := len(p) - sent
		pad := s.conn.padFor(chunk)
		// A padded frame carries 1 length byte + pad; the whole payload
		// must fit the peer's max frame size and both flow windows.
		overhead := 0
		if pad > 0 {
			overhead = 1 + pad
		}
		if max := s.conn.peerMaxFrameSize - overhead; chunk > max {
			chunk = max
		}
		if w := int(s.sendWindow) - overhead; chunk > w {
			chunk = w
		}
		if w := int(s.conn.sendWindow) - overhead; chunk > w {
			chunk = w
		}
		if chunk <= 0 {
			// Flow control has pinched off the stream: the sender has data
			// but neither window admits another byte.
			if c := s.conn; c.tr.Enabled() {
				c.tr.Emit(trace.LayerH2, "fc-stall",
					trace.Str("ep", c.traceName), trace.Num("stream", int64(s.id)),
					trace.Num("stream_wnd", s.sendWindow), trace.Num("conn_wnd", c.sendWindow))
			}
			break
		}
		es := endStream && sent+chunk == len(p)
		data := p[sent : sent+chunk]
		s.conn.emitFrame(FrameData, s.id, func(dst []byte) []byte {
			return AppendData(dst, s.id, data, es, pad)
		})
		consumed := int64(chunk + overhead)
		s.sendWindow -= consumed
		s.conn.sendWindow -= consumed
		if c := s.conn; c.ck.Enabled() {
			c.ck.H2DataSent(c.traceName, s.id, int(consumed))
		}
		s.conn.stats.DataBytesSent += int64(chunk)
		sent += chunk
		if es {
			s.localClose()
		}
	}
	return sent, nil
}

// Reset aborts the stream with RST_STREAM. The paper's client uses this
// (code CANCEL) to force the server to flush its queue (§IV-D).
func (s *Stream) Reset(code ErrCode) {
	if s.state == StreamClosed || s.state == StreamIdle {
		return
	}
	s.conn.emitFrame(FrameRSTStream, s.id, func(dst []byte) []byte {
		return AppendRSTStream(dst, s.id, code)
	})
	s.conn.closeStream(s, code, false)
}

// SendPriority emits a PRIORITY frame re-prioritizing this stream (the
// §VII randomized-priority defense uses it).
func (s *Stream) SendPriority(prio PriorityParam) {
	s.prio = prio
	s.conn.emitFrame(FramePriority, s.id, func(dst []byte) []byte {
		return AppendPriority(dst, s.id, prio)
	})
}

// localClose records that our side sent END_STREAM.
func (s *Stream) localClose() {
	switch s.state {
	case StreamOpen:
		s.state = StreamHalfClosedLocal
	case StreamHalfClosedRemote:
		s.conn.closeStream(s, ErrCodeNo, false)
	}
}

// remoteClose records that the peer sent END_STREAM.
func (s *Stream) remoteClose() {
	switch s.state {
	case StreamOpen:
		s.state = StreamHalfClosedRemote
	case StreamHalfClosedLocal:
		s.conn.closeStream(s, ErrCodeNo, false)
	}
}
