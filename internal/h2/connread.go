package h2

import (
	"bytes"
	"errors"
	"fmt"

	"h2privacy/internal/trace"
)

// Feed consumes transport bytes and dispatches complete frames to the
// application handlers. The returned error, when non-nil, is fatal: a
// GOAWAY has already been emitted and the connection is dead. Stream-level
// errors are handled internally (RST_STREAM) and do not surface here.
func (c *Conn) Feed(b []byte) error {
	if c.failed != nil {
		return c.failed
	}
	// Server side: swallow the client connection preface first.
	if len(c.prefacePending) > 0 {
		n := len(b)
		if n > len(c.prefacePending) {
			n = len(c.prefacePending)
		}
		if !bytes.Equal(b[:n], c.prefacePending[:n]) {
			return c.connError(ConnectionError{ErrCodeProtocol, "bad client preface"})
		}
		c.prefacePending = c.prefacePending[n:]
		b = b[n:]
		if len(b) == 0 {
			return nil
		}
	}
	c.reader.Feed(b)
	for {
		// Parse into the connection's scratch frame: zero allocations in
		// steady state. processFrame's handlers copy any payload they keep,
		// so reuse on the next iteration is safe.
		ok, err := c.reader.nextInto(&c.scratchFrame)
		if err != nil {
			var se StreamError
			if errors.As(err, &se) {
				c.resetStreamByID(se.StreamID, se.Code)
				continue
			}
			var ce ConnectionError
			if errors.As(err, &ce) {
				return c.connError(ce)
			}
			return c.connError(ConnectionError{ErrCodeProtocol, err.Error()})
		}
		if !ok {
			return nil
		}
		if err := c.processFrame(&c.scratchFrame); err != nil {
			var ce ConnectionError
			if errors.As(err, &ce) {
				return c.connError(ce)
			}
			return c.connError(ConnectionError{ErrCodeInternal, err.Error()})
		}
	}
}

// connError emits GOAWAY, poisons the connection and returns the error.
func (c *Conn) connError(ce ConnectionError) error {
	if c.failed == nil {
		c.GoAway(ce.Code, []byte(ce.Reason))
		c.failed = ce
	}
	return c.failed
}

// resetStreamByID sends RST_STREAM for a stream-level error.
func (c *Conn) resetStreamByID(id uint32, code ErrCode) {
	if s := c.streams[id]; s != nil {
		s.Reset(code)
		return
	}
	c.emitFrame(FrameRSTStream, id, func(dst []byte) []byte {
		return AppendRSTStream(dst, id, code)
	})
}

func (c *Conn) processFrame(f *Frame) error {
	t := f.Header.Type
	c.stats.FramesReceived[t]++
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerH2, "recv",
			trace.Str("ep", c.traceName), trace.Str("type", t.String()),
			trace.Num("stream", int64(f.Header.StreamID)), trace.Num("len", int64(f.Header.Length)))
	}
	if c.ck.Enabled() {
		var aux uint32
		switch t {
		case FrameWindowUpdate:
			aux = f.WindowIncrement
		case FramePushPromise:
			aux = f.PromisedStreamID
		}
		c.ck.H2FrameRecv(c.traceName, uint8(t), f.Header.StreamID, f.Header.Length, uint8(f.Header.Flags), aux)
	}
	if c.fl.Enabled() {
		c.fl.H2Frame(c.isClient, false, uint8(t), f.Header.StreamID, f.Header.Length, uint8(f.Header.Flags))
	}

	// While a header block is being continued, only CONTINUATION on the
	// same stream is legal (§6.10).
	if c.contActive && (t != FrameContinuation || f.Header.StreamID != c.contStreamID) {
		return ConnectionError{ErrCodeProtocol, "interleaved frame during CONTINUATION"}
	}

	switch t {
	case FrameSettings:
		return c.processSettings(f)
	case FrameData:
		return c.processData(f)
	case FrameHeaders:
		return c.processHeaders(f)
	case FrameContinuation:
		return c.processContinuation(f)
	case FramePriority:
		if s := c.streams[f.Header.StreamID]; s != nil {
			s.prio = f.Priority
		}
		return nil
	case FrameRSTStream:
		return c.processRSTStream(f)
	case FrameWindowUpdate:
		return c.processWindowUpdate(f)
	case FramePing:
		if !f.Header.Flags.Has(FlagAck) {
			c.emitFrame(FramePing, 0, func(dst []byte) []byte {
				return AppendPing(dst, true, f.PingData)
			})
		}
		if c.handlers.OnPing != nil {
			c.handlers.OnPing(f.Header.Flags.Has(FlagAck), f.PingData)
		}
		return nil
	case FrameGoAway:
		c.goAwayReceived = true
		if c.handlers.OnGoAway != nil {
			c.handlers.OnGoAway(f.LastStreamID, f.ErrCode, f.Data)
		}
		return nil
	case FramePushPromise:
		return c.processPushPromise(f)
	default:
		return nil // unknown frame types are ignored (§4.1)
	}
}

func (c *Conn) processSettings(f *Frame) error {
	if f.Header.Flags.Has(FlagAck) {
		return nil
	}
	for _, s := range f.Settings {
		switch s.ID {
		case SettingHeaderTableSize:
			c.henc.SetMaxDynamicTableSize(int(s.Val))
		case SettingEnablePush:
			if s.Val > 1 {
				return ConnectionError{ErrCodeProtocol, "ENABLE_PUSH must be 0 or 1"}
			}
			c.peerAllowsPush = s.Val == 1 && !c.isClient
		case SettingMaxConcurrentStreams:
			c.peerMaxStreams = s.Val
		case SettingInitialWindowSize:
			if s.Val > maxWindow {
				return ConnectionError{ErrCodeFlowControl, "INITIAL_WINDOW_SIZE overflow"}
			}
			delta := int64(s.Val) - c.peerInitialWindow
			c.peerInitialWindow = int64(s.Val)
			for _, st := range c.streams {
				st.sendWindow += delta
			}
			if c.ck.Enabled() {
				c.ck.H2PeerInitialWindow(c.traceName, s.Val)
			}
			if delta > 0 {
				c.notifyWindow(nil)
			}
		case SettingMaxFrameSize:
			if s.Val < DefaultMaxFrameSize || s.Val > maxFrameSizeLimit {
				return ConnectionError{ErrCodeProtocol, "MAX_FRAME_SIZE out of range"}
			}
			c.peerMaxFrameSize = int(s.Val)
		case SettingMaxHeaderListSize:
			// Advisory.
		}
	}
	c.emitFrame(FrameSettings, 0, AppendSettingsAck)
	if c.handlers.OnSettings != nil {
		c.handlers.OnSettings(f.Settings)
	}
	return nil
}

func (c *Conn) processData(f *Frame) error {
	id := f.Header.StreamID
	// Flow control consumes the entire frame payload, padding included.
	consumed := int64(f.Header.Length)
	c.recvWindow -= consumed
	if c.recvWindow < 0 {
		return ConnectionError{ErrCodeFlowControl, "connection flow-control window exceeded"}
	}
	// Replenish the connection window immediately (fast reader).
	if consumed > 0 {
		c.recvWindow += consumed
		c.emitFrame(FrameWindowUpdate, 0, func(dst []byte) []byte {
			return AppendWindowUpdate(dst, 0, uint32(consumed))
		})
	}

	s := c.streams[id]
	if s == nil {
		if c.closedStreams[id] || c.isOldPeerStream(id) || c.isOldLocalStream(id) {
			return nil // late data for a dead stream: ignore (§5.1)
		}
		return ConnectionError{ErrCodeProtocol, fmt.Sprintf("DATA on idle stream %d", id)}
	}
	if s.state != StreamOpen && s.state != StreamHalfClosedLocal {
		c.resetStreamByID(id, ErrCodeStreamClosed)
		return nil
	}
	s.recvWindow -= consumed
	if s.recvWindow < 0 {
		c.resetStreamByID(id, ErrCodeFlowControl)
		return nil
	}
	if consumed > 0 {
		s.recvWindow += consumed
		c.emitFrame(FrameWindowUpdate, id, func(dst []byte) []byte {
			return AppendWindowUpdate(dst, id, uint32(consumed))
		})
	}
	c.stats.DataBytesRcvd += int64(len(f.Data))
	endStream := f.Header.Flags.Has(FlagEndStream)
	if c.ck.Enabled() {
		c.ck.H2AppData(c.traceName, id)
	}
	if c.handlers.OnStreamData != nil {
		c.handlers.OnStreamData(s, f.Data, endStream)
	}
	if endStream {
		s.remoteClose()
	}
	return nil
}

func (c *Conn) processHeaders(f *Frame) error {
	id := f.Header.StreamID
	s := c.streams[id]
	if s == nil {
		if c.isClient {
			if c.closedStreams[id] {
				// Response headers for a stream we already reset. The
				// block must still be decoded — HPACK state is
				// connection-wide — but goes nowhere.
				s = &Stream{conn: c, id: id, state: StreamClosed, orphan: true}
			} else {
				return ConnectionError{ErrCodeProtocol, fmt.Sprintf("HEADERS on unknown stream %d", id)}
			}
		} else {
			// New request stream on the server.
			if id%2 == 0 {
				return ConnectionError{ErrCodeProtocol, "client-initiated stream with even id"}
			}
			if id <= c.lastPeerStreamID {
				if !c.closedStreams[id] {
					return ConnectionError{ErrCodeProtocol, "stream id not monotonically increasing"}
				}
				s = &Stream{conn: c, id: id, state: StreamClosed, orphan: true}
			}
		}
	}
	if s == nil {
		refuse := uint32(c.peerStreamCount) >= c.cfg.MaxConcurrentStreams
		c.lastPeerStreamID = id
		c.peerStreamCount++
		s = c.newStream(id)
		s.state = StreamOpen
		// A refused stream's header block must still be decoded: HPACK
		// state is connection-wide and skipping a block desynchronizes
		// the dynamic table (RFC 7540 §8.1.2.5 discussion).
		s.refused = refuse
	}
	if !f.Priority.IsZero() {
		s.prio = f.Priority
	}
	endStream := f.Header.Flags.Has(FlagEndStream)
	if !f.Header.Flags.Has(FlagEndHeaders) {
		c.contActive = true
		c.contStreamID = id
		c.contStream = s
		c.contBuf = append(c.contBuf[:0], f.Data...)
		c.contEndStream = endStream
		c.contIsPush = false
		return nil
	}
	return c.finishHeaderBlock(s, f.Data, endStream)
}

func (c *Conn) processContinuation(f *Frame) error {
	if !c.contActive || f.Header.StreamID != c.contStreamID {
		return ConnectionError{ErrCodeProtocol, "unexpected CONTINUATION"}
	}
	c.contBuf = append(c.contBuf, f.Data...)
	if len(c.contBuf) > int(c.cfg.MaxHeaderListSize)*2 {
		return ConnectionError{ErrCodeEnhanceYourCalm, "continued header block too large"}
	}
	if !f.Header.Flags.Has(FlagEndHeaders) {
		return nil
	}
	c.contActive = false
	block := c.contBuf
	if c.contIsPush {
		parent, promised := c.contParent, c.contPromised
		c.contParent, c.contPromised = nil, nil
		return c.finishPushPromise(parent, promised, block)
	}
	s := c.contStream
	c.contStream = nil
	if s == nil {
		return nil
	}
	// A stream reset mid-continuation still needs its block decoded for
	// HPACK state continuity; treat it as orphaned.
	if c.streams[c.contStreamID] != s {
		s.orphan = true
	}
	return c.finishHeaderBlock(s, block, c.contEndStream)
}

func (c *Conn) finishHeaderBlock(s *Stream, block []byte, endStream bool) error {
	fields, err := c.decodeBlock(block)
	if err != nil {
		return ConnectionError{ErrCodeCompression, err.Error()}
	}
	if c.ck.Enabled() {
		c.ck.HpackDecoded(c.traceName, c.hdec.DynamicTableSize())
	}
	if s.orphan {
		return nil // decoded for table continuity only
	}
	if s.refused {
		s.Reset(ErrCodeRefusedStream)
		return nil
	}
	if s.state == StreamReservedRemote {
		s.state = StreamHalfClosedLocal
	}
	if c.handlers.OnStreamHeaders != nil {
		c.handlers.OnStreamHeaders(s, fields, endStream)
	}
	if endStream {
		s.remoteClose()
	}
	return nil
}

func (c *Conn) processRSTStream(f *Frame) error {
	id := f.Header.StreamID
	s := c.streams[id]
	if s == nil {
		if !c.closedStreams[id] && !c.isOldPeerStream(id) && !c.isOldLocalStream(id) {
			return ConnectionError{ErrCodeProtocol, fmt.Sprintf("RST_STREAM on idle stream %d", id)}
		}
		return nil
	}
	c.closeStream(s, f.ErrCode, true)
	return nil
}

func (c *Conn) processWindowUpdate(f *Frame) error {
	id := f.Header.StreamID
	if f.WindowIncrement == 0 {
		if id == 0 {
			return ConnectionError{ErrCodeProtocol, "WINDOW_UPDATE increment 0"}
		}
		c.resetStreamByID(id, ErrCodeProtocol)
		return nil
	}
	if id == 0 {
		c.sendWindow += int64(f.WindowIncrement)
		if c.sendWindow > maxWindow {
			return ConnectionError{ErrCodeFlowControl, "connection window overflow"}
		}
		c.notifyWindow(nil)
		return nil
	}
	s := c.streams[id]
	if s == nil {
		return nil // window update for a finished stream
	}
	s.sendWindow += int64(f.WindowIncrement)
	if s.sendWindow > maxWindow {
		c.resetStreamByID(id, ErrCodeFlowControl)
		return nil
	}
	c.notifyWindow(s)
	return nil
}

func (c *Conn) processPushPromise(f *Frame) error {
	if !c.isClient {
		return ConnectionError{ErrCodeProtocol, "PUSH_PROMISE from client"}
	}
	if !c.cfg.EnablePush {
		return ConnectionError{ErrCodeProtocol, "PUSH_PROMISE while push disabled"}
	}
	parent := c.streams[f.Header.StreamID]
	if parent == nil {
		return ConnectionError{ErrCodeProtocol, "PUSH_PROMISE on unknown stream"}
	}
	if f.PromisedStreamID == 0 || f.PromisedStreamID%2 != 0 {
		return ConnectionError{ErrCodeProtocol, "invalid promised stream id"}
	}
	if c.streams[f.PromisedStreamID] != nil || c.closedStreams[f.PromisedStreamID] {
		return ConnectionError{ErrCodeProtocol, "promised stream id in use"}
	}
	promised := c.newStream(f.PromisedStreamID)
	promised.state = StreamReservedRemote
	if !f.Header.Flags.Has(FlagEndHeaders) {
		c.contActive = true
		c.contStreamID = f.Header.StreamID
		c.contBuf = append(c.contBuf[:0], f.Data...)
		c.contIsPush = true
		c.contParent = parent
		c.contPromised = promised
		return nil
	}
	return c.finishPushPromise(parent, promised, f.Data)
}

// decodeBlock decodes a header block into the connection's field scratch,
// which the next block overwrites: handlers see fields only until they
// return.
func (c *Conn) decodeBlock(block []byte) ([]HeaderField, error) {
	fields, err := c.hdec.AppendDecode(c.hdecBuf[:0], block)
	c.hdecBuf = fields[:0]
	return fields, err
}

func (c *Conn) finishPushPromise(parent, promised *Stream, block []byte) error {
	fields, err := c.decodeBlock(block)
	if err != nil {
		return ConnectionError{ErrCodeCompression, err.Error()}
	}
	if c.ck.Enabled() {
		c.ck.HpackDecoded(c.traceName, c.hdec.DynamicTableSize())
	}
	if c.handlers.OnPushPromise != nil {
		c.handlers.OnPushPromise(parent, promised, fields)
	}
	return nil
}

func (c *Conn) notifyWindow(s *Stream) {
	if c.handlers.OnWindowAvailable != nil {
		c.handlers.OnWindowAvailable(s)
	}
}

// isOldPeerStream reports whether id is a peer-initiated stream id at or
// below the highest we have processed (hence implicitly closed).
func (c *Conn) isOldPeerStream(id uint32) bool {
	return c.isPeerInitiated(id) && id <= c.lastPeerStreamID
}

// isOldLocalStream reports whether id is a locally-initiated id we have
// already used.
func (c *Conn) isOldLocalStream(id uint32) bool {
	return !c.isPeerInitiated(id) && id < c.nextStreamID
}
