package h2

import (
	"fmt"

	"h2privacy/internal/check"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/hpack"
	"h2privacy/internal/instr"
	"h2privacy/internal/trace"
)

// HeaderField aliases hpack.HeaderField; the h2 API speaks header lists.
type HeaderField = hpack.HeaderField

// Config tunes a connection endpoint. Zero values select the RFC defaults.
type Config struct {
	// HeaderTableSize is the HPACK dynamic table size we advertise.
	HeaderTableSize uint32
	// EnablePush advertises whether the peer may PUSH_PROMISE to us
	// (meaningful on clients). Defaults to false: pushes are refused.
	EnablePush bool
	// MaxConcurrentStreams caps peer-initiated concurrent streams.
	// Zero means 100.
	MaxConcurrentStreams uint32
	// InitialWindowSize is the per-stream flow window we advertise.
	// Zero means 65535.
	InitialWindowSize uint32
	// MaxFrameSize is the largest frame payload we accept (16384…2^24-1).
	// Zero means 16384.
	MaxFrameSize uint32
	// MaxHeaderListSize caps decoded header lists. Zero means 1 MiB.
	MaxHeaderListSize uint32
	// PadData, when non-nil, returns the padding length to append to a
	// DATA frame carrying n bytes — the size-obfuscation defense knob
	// explored alongside the paper's §VII directions.
	PadData func(n int) int
	// HuffmanHeaders Huffman-codes outgoing HPACK string literals.
	HuffmanHeaders bool
	// TraceName tags this endpoint's trace events and invariant checks.
	// Defaults to "client" or "server" by role.
	TraceName string
}

func (c Config) withDefaults() Config {
	if c.HeaderTableSize == 0 {
		c.HeaderTableSize = hpack.DefaultDynamicTableSize
	}
	if c.MaxConcurrentStreams == 0 {
		c.MaxConcurrentStreams = 100
	}
	if c.InitialWindowSize == 0 {
		c.InitialWindowSize = DefaultInitialWindowSize
	}
	if c.MaxFrameSize == 0 {
		c.MaxFrameSize = DefaultMaxFrameSize
	}
	if c.MaxHeaderListSize == 0 {
		c.MaxHeaderListSize = 1 << 20
	}
	return c
}

func (c Config) validate() error {
	if c.MaxFrameSize < DefaultMaxFrameSize || c.MaxFrameSize > maxFrameSizeLimit {
		return fmt.Errorf("h2: MaxFrameSize %d outside [%d, %d]", c.MaxFrameSize, DefaultMaxFrameSize, maxFrameSizeLimit)
	}
	if c.InitialWindowSize > maxWindow {
		return fmt.Errorf("h2: InitialWindowSize %d exceeds 2^31-1", c.InitialWindowSize)
	}
	return nil
}

// Handlers are the application callbacks. Any may be nil. A fields slice
// handed to OnStreamHeaders or OnPushPromise is the connection's decode
// scratch, valid only until the handler returns: copy what you keep.
type Handlers struct {
	// OnStreamHeaders delivers a decoded header block. For servers this
	// is a request (a new Stream); for clients a response or trailers.
	OnStreamHeaders func(s *Stream, fields []HeaderField, endStream bool)
	// OnStreamData delivers DATA payload (padding already stripped).
	OnStreamData func(s *Stream, data []byte, endStream bool)
	// OnStreamReset reports stream termination by RST_STREAM; remote
	// says whether the peer initiated it.
	OnStreamReset func(s *Stream, code ErrCode, remote bool)
	// OnStreamClosed reports normal (END_STREAM both ways) completion.
	OnStreamClosed func(s *Stream)
	// OnPushPromise delivers a server push: the promised stream and the
	// synthesized request headers.
	OnPushPromise func(parent, promised *Stream, fields []HeaderField)
	// OnGoAway reports the peer's GOAWAY.
	OnGoAway func(lastStreamID uint32, code ErrCode, debug []byte)
	// OnPing reports PING frames (already ACKed internally).
	OnPing func(ack bool, data [8]byte)
	// OnWindowAvailable fires when send flow control opens up; s is nil
	// for connection-window updates.
	OnWindowAvailable func(s *Stream)
	// OnSettings reports the peer's SETTINGS (already applied and ACKed).
	OnSettings func(settings []Setting)
}

// ConnStats counts frames for the experiment harness.
type ConnStats struct {
	FramesSent     map[FrameType]int
	FramesReceived map[FrameType]int
	DataBytesSent  int64
	DataBytesRcvd  int64
}

// Conn is a sans-IO HTTP/2 connection endpoint.
type Conn struct {
	isClient bool
	cfg      Config
	out      func([]byte)
	handlers Handlers

	reader  *FrameReader
	henc    *hpack.Encoder
	hdec    *hpack.Decoder
	started bool
	failed  error

	prefacePending []byte // server: bytes of the client preface still expected

	streams          map[uint32]*Stream
	closedStreams    map[uint32]bool
	nextStreamID     uint32
	lastPeerStreamID uint32
	peerStreamCount  int

	sendWindow int64 // connection-level send window
	recvWindow int64 // connection-level receive window

	peerMaxFrameSize  int
	peerInitialWindow int64
	peerMaxStreams    uint32
	peerAllowsPush    bool

	goAwaySent     bool
	goAwayReceived bool

	// CONTINUATION reassembly state.
	contActive    bool
	contStreamID  uint32
	contStream    *Stream
	contBuf       []byte
	contEndStream bool
	contIsPush    bool
	contParent    *Stream
	contPromised  *Stream

	stats ConnStats

	// Per-frame scratch, reused across calls. scratchFrame backs the Feed
	// parse loop (the public FrameReader.Next still allocates); wbuf backs
	// emitFrame's serialization (consumers seal or copy synchronously);
	// hencBuf backs header-block encoding, kept separate from wbuf because
	// a block spans multiple emitFrame calls when CONTINUATION splits it;
	// hdecBuf backs the fields of each decoded header block.
	scratchFrame Frame
	wbuf         []byte
	hencBuf      []byte
	hdecBuf      []HeaderField

	tr        *trace.Tracer
	traceName string

	ck *check.Checker // nil unless invariant checks are armed

	fl *flowseq.Analyzer // nil unless flow-sequence analytics are armed
}

// NewConn builds an endpoint. out transmits wire bytes (one call per
// frame, which the TLS layer seals as one record) and must be non-nil.
// The slice passed to out is scratch the connection reuses for the next
// frame: consumers that keep the bytes past the callback must copy them.
//
// ins.Trace arms per-frame tracing (send/recv with type, stream and
// length; flow-control stalls). ins.Check arms the HTTP/2 and HPACK
// invariant checkers: stream-state legality, flow-control window shadows
// and dynamic-table size agreement. ins.Flows receives every frame sent
// and received; the analyzer resolves direction from this endpoint's
// role, so arm it on one endpoint per flow (the testbed arms the
// browser's connection, h2serve the server's).
func NewConn(isClient bool, cfg Config, ins instr.Bundle, out func([]byte)) (*Conn, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("h2: NewConn requires an output function")
	}
	c := &Conn{
		isClient:          isClient,
		cfg:               cfg,
		out:               out,
		reader:            NewFrameReader(),
		henc:              hpack.NewEncoder(hpack.DefaultDynamicTableSize),
		hdec:              hpack.NewDecoder(int(cfg.HeaderTableSize)),
		streams:           make(map[uint32]*Stream),
		closedStreams:     make(map[uint32]bool),
		sendWindow:        DefaultInitialWindowSize,
		recvWindow:        DefaultInitialWindowSize,
		peerMaxFrameSize:  DefaultMaxFrameSize,
		peerInitialWindow: DefaultInitialWindowSize,
		peerMaxStreams:    ^uint32(0),
		peerAllowsPush:    !isClient, // clients may push to nobody
		stats: ConnStats{
			FramesSent:     make(map[FrameType]int),
			FramesReceived: make(map[FrameType]int),
		},
	}
	c.henc.UseHuffman = cfg.HuffmanHeaders
	c.reader.MaxFrameSize = int(cfg.MaxFrameSize)
	c.hdec.MaxHeaderListSize = int(cfg.MaxHeaderListSize)
	c.hdec.MaxStringLength = int(cfg.MaxHeaderListSize)
	if isClient {
		c.nextStreamID = 1
	} else {
		c.nextStreamID = 2
		c.prefacePending = []byte(ClientPreface)
	}
	c.traceName = cfg.TraceName
	if c.traceName == "" {
		if isClient {
			c.traceName = "client"
		} else {
			c.traceName = "server"
		}
	}
	c.tr, c.ck, c.fl = ins.Trace, ins.Check, ins.Flows
	c.ck.H2Register(c.traceName, isClient, cfg.InitialWindowSize)
	return c, nil
}

// SetHandlers installs the application callbacks (before Start).
func (c *Conn) SetHandlers(h Handlers) { c.handlers = h }

// Err returns the fatal connection error, or nil.
func (c *Conn) Err() error { return c.failed }

// Stats returns the frame counters (live maps; do not mutate).
func (c *Conn) Stats() ConnStats { return c.stats }

// Stream returns the stream with the given id, or nil.
func (c *Conn) Stream(id uint32) *Stream { return c.streams[id] }

// Start emits the connection preface: the client magic (clients only)
// followed by our SETTINGS frame.
func (c *Conn) Start() {
	if c.started {
		return
	}
	c.started = true
	if c.isClient {
		c.out([]byte(ClientPreface))
	}
	var settings []Setting
	if c.cfg.HeaderTableSize != hpack.DefaultDynamicTableSize {
		settings = append(settings, Setting{SettingHeaderTableSize, c.cfg.HeaderTableSize})
	}
	if c.isClient {
		push := uint32(0)
		if c.cfg.EnablePush {
			push = 1
		}
		settings = append(settings, Setting{SettingEnablePush, push})
	}
	settings = append(settings,
		Setting{SettingMaxConcurrentStreams, c.cfg.MaxConcurrentStreams},
		Setting{SettingInitialWindowSize, c.cfg.InitialWindowSize},
		Setting{SettingMaxFrameSize, c.cfg.MaxFrameSize},
	)
	c.emitFrame(FrameSettings, 0, func(dst []byte) []byte {
		return AppendSettings(dst, settings)
	})
}

// OpenStream initiates a request stream (clients only). fields are the
// request pseudo-headers+headers; endStream marks a bodyless request.
func (c *Conn) OpenStream(fields []HeaderField, endStream bool, prio PriorityParam) (*Stream, error) {
	if !c.isClient {
		return nil, fmt.Errorf("h2: server cannot open request streams")
	}
	if c.failed != nil {
		return nil, c.failed
	}
	if c.goAwayReceived {
		return nil, fmt.Errorf("h2: connection is shutting down (GOAWAY received)")
	}
	id := c.nextStreamID
	c.nextStreamID += 2
	s := c.newStream(id)
	s.prio = prio
	s.state = StreamOpen
	if endStream {
		s.state = StreamHalfClosedLocal
	}
	c.sendHeaderBlock(id, fields, endStream, prio)
	return s, nil
}

// Push reserves a promised stream for server push (servers only; the peer
// must have enabled push).
func (c *Conn) Push(parent *Stream, fields []HeaderField) (*Stream, error) {
	if c.isClient {
		return nil, fmt.Errorf("h2: client cannot push")
	}
	if !c.peerAllowsPush {
		return nil, fmt.Errorf("h2: peer disabled push")
	}
	if parent == nil || parent.state == StreamClosed {
		return nil, fmt.Errorf("h2: push requires an open parent stream")
	}
	id := c.nextStreamID
	c.nextStreamID += 2
	promised := c.newStream(id)
	promised.state = StreamReservedLocal
	block := c.henc.Encode(c.hencBuf[:0], fields)
	c.hencBuf = block
	if c.ck.Enabled() {
		c.ck.HpackEncoded(c.traceName, c.henc.DynamicTableSize())
	}
	c.emitFrame(FramePushPromise, parent.id, func(dst []byte) []byte {
		return AppendPushPromise(dst, parent.id, id, block, true)
	})
	return promised, nil
}

// RaiseConnWindow grows the connection-level receive window by n bytes,
// emitting a WINDOW_UPDATE on stream 0. Browsers do this right after the
// SETTINGS exchange (Firefox raises it to ~12 MiB) so that the per-RTT
// transfer rate is bounded by TCP, not by HTTP/2 flow control.
func (c *Conn) RaiseConnWindow(n uint32) {
	if n == 0 {
		return
	}
	c.recvWindow += int64(n)
	c.emitFrame(FrameWindowUpdate, 0, func(dst []byte) []byte {
		return AppendWindowUpdate(dst, 0, n)
	})
}

// Ping sends a PING with the given opaque data.
func (c *Conn) Ping(data [8]byte) {
	c.emitFrame(FramePing, 0, func(dst []byte) []byte {
		return AppendPing(dst, false, data)
	})
}

// GoAway announces connection shutdown.
func (c *Conn) GoAway(code ErrCode, debug []byte) {
	if c.goAwaySent {
		return
	}
	c.goAwaySent = true
	c.emitFrame(FrameGoAway, 0, func(dst []byte) []byte {
		return AppendGoAway(dst, c.lastPeerStreamID, code, debug)
	})
}

// newStream registers a stream object.
func (c *Conn) newStream(id uint32) *Stream {
	s := &Stream{
		conn:       c,
		id:         id,
		state:      StreamIdle,
		sendWindow: c.peerInitialWindow,
		recvWindow: int64(c.cfg.InitialWindowSize),
	}
	c.streams[id] = s
	return s
}

// closeStream finalizes a stream and notifies the application.
func (c *Conn) closeStream(s *Stream, code ErrCode, remote bool) {
	if s.state == StreamClosed {
		return
	}
	wasReset := code != ErrCodeNo || remote
	s.state = StreamClosed
	delete(c.streams, s.id)
	c.closedStreams[s.id] = true
	if c.isPeerInitiated(s.id) && c.peerStreamCount > 0 {
		c.peerStreamCount--
	}
	if wasReset {
		if c.handlers.OnStreamReset != nil {
			c.handlers.OnStreamReset(s, code, remote)
		}
	} else if c.handlers.OnStreamClosed != nil {
		c.handlers.OnStreamClosed(s)
	}
}

func (c *Conn) isPeerInitiated(id uint32) bool {
	if c.isClient {
		return id%2 == 0
	}
	return id%2 == 1
}

// sendHeaderBlock HPACK-encodes fields and emits HEADERS (+CONTINUATION as
// needed).
func (c *Conn) sendHeaderBlock(streamID uint32, fields []HeaderField, endStream bool, prio PriorityParam) {
	block := c.henc.Encode(c.hencBuf[:0], fields)
	c.hencBuf = block
	if c.ck.Enabled() {
		c.ck.HpackEncoded(c.traceName, c.henc.DynamicTableSize())
	}
	max := c.peerMaxFrameSize
	if !prio.IsZero() {
		max -= 5
	}
	first := block
	rest := []byte(nil)
	if len(first) > max {
		first, rest = block[:max], block[max:]
	}
	endHeaders := len(rest) == 0
	c.emitFrame(FrameHeaders, streamID, func(dst []byte) []byte {
		return AppendHeaders(dst, streamID, first, endStream, endHeaders, prio)
	})
	for len(rest) > 0 {
		chunk := rest
		if len(chunk) > c.peerMaxFrameSize {
			chunk = chunk[:c.peerMaxFrameSize]
		}
		rest = rest[len(chunk):]
		last := len(rest) == 0
		c.emitFrame(FrameContinuation, streamID, func(dst []byte) []byte {
			return AppendContinuation(dst, streamID, chunk, last)
		})
	}
}

// padFor applies the configured padding policy.
func (c *Conn) padFor(n int) int {
	if c.cfg.PadData == nil {
		return 0
	}
	pad := c.cfg.PadData(n)
	if pad < 0 {
		return 0
	}
	if pad > 255 {
		pad = 255
	}
	return pad
}

// emitFrame serializes one frame through build and transmits it. streamID
// is the stream the frame belongs to (0 for connection-level frames); it
// only feeds the trace. The emitted slice is scratch reused by the next
// frame: out consumers (the TLS layer, taps) copy what they keep, as the
// NewConn contract requires.
func (c *Conn) emitFrame(t FrameType, streamID uint32, build func([]byte) []byte) {
	c.stats.FramesSent[t]++
	b := build(c.wbuf[:0])
	c.wbuf = b
	if c.tr.Enabled() {
		c.tr.Emit(trace.LayerH2, "send",
			trace.Str("ep", c.traceName), trace.Str("type", t.String()),
			trace.Num("stream", int64(streamID)), trace.Num("len", int64(len(b)-FrameHeaderSize)))
	}
	if c.ck.Enabled() {
		// aux carries the WINDOW_UPDATE increment / PUSH_PROMISE promised
		// stream ID, both big-endian at the start of the payload.
		var aux uint32
		if (t == FrameWindowUpdate || t == FramePushPromise) && len(b) >= FrameHeaderSize+4 {
			p := b[FrameHeaderSize:]
			aux = (uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])) & 0x7fffffff
		}
		c.ck.H2FrameSent(c.traceName, uint8(t), streamID, len(b)-FrameHeaderSize, b[4], aux)
	}
	if c.fl.Enabled() {
		c.fl.H2Frame(c.isClient, true, uint8(t), streamID, len(b)-FrameHeaderSize, b[4])
	}
	c.out(b)
}
