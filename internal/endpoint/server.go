package endpoint

import (
	"fmt"
	"strconv"
	"time"

	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
	"h2privacy/internal/metrics"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/trace"
	"h2privacy/internal/website"
)

// ServerConfig tunes the simulated web server's threading model.
type ServerConfig struct {
	// ChunkSize is how many object bytes each "thread" enqueues per step
	// (one DATA frame → one TLS record → ≈ one TCP segment). Default 1200.
	ChunkSize int
	// ChunkDelayMedian is the median per-chunk service time (disk/CPU +
	// write pacing); log-normal with ChunkDelaySigma. Default 700 µs.
	ChunkDelayMedian time.Duration
	// ChunkDelaySigma is the service-time spread. Default 0.6.
	ChunkDelaySigma float64
	// DispatchDelay is the median request-to-first-work latency for
	// static objects (cache hits). Default 1.5 ms.
	DispatchDelay time.Duration
	// DynamicDispatch is the median time to begin rendering a dynamic
	// (server-generated) page. Default 180 ms (log-normal, sigma 0.5).
	DynamicDispatch time.Duration
	// DynamicChunkDelay is the median per-chunk streaming time for
	// dynamic pages, which render incrementally. Default 2.5 ms: the quiz
	// HTML streams out over ~20-30 ms after dispatch, and baseline
	// multiplexing comes from neighbouring objects' bursts colliding
	// with that window.
	DynamicChunkDelay time.Duration
	// PushEmblems enables the §VII server-push defense: when the results
	// script is requested, the server pushes all eight emblem images
	// unprompted, in catalog (not preference) order. The adversary's GET
	// counting and request spacing have no handle on pushed objects, and
	// the push order is independent of the user's ranking.
	PushEmblems bool
	// SendBufLimit caps the socket-buffer backpressure point: tasks pause
	// while the transport holds more unacknowledged bytes than the
	// effective limit, which autotunes to 2×cwnd (clamped to
	// [16 KiB, SendBufLimit]) the way Linux sndbuf autotuning tracks the
	// congestion window. When losses collapse cwnd, writes block early
	// and almost nothing is queued beyond recall — which is why the
	// paper's RST_STREAM flush (§IV-D) leaves the wire nearly clean.
	// Default 256 KiB (nginx-scale socket buffers; also bounds how much
	// data a reset cannot recall from the kernel).
	SendBufLimit int
	// H2 tunes the server's HTTP/2 endpoint.
	H2 h2.Config
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ChunkSize == 0 {
		c.ChunkSize = 1200
	}
	if c.ChunkDelayMedian == 0 {
		c.ChunkDelayMedian = 700 * time.Microsecond
	}
	if c.ChunkDelaySigma == 0 {
		c.ChunkDelaySigma = 0.6
	}
	if c.DispatchDelay == 0 {
		c.DispatchDelay = 1500 * time.Microsecond
	}
	if c.DynamicDispatch == 0 {
		c.DynamicDispatch = 180 * time.Millisecond
	}
	if c.DynamicChunkDelay == 0 {
		c.DynamicChunkDelay = 2500 * time.Microsecond
	}
	if c.SendBufLimit == 0 {
		c.SendBufLimit = 256 << 10
	}
	if c.H2.MaxConcurrentStreams == 0 {
		c.H2.MaxConcurrentStreams = 128 // nginx's http2_max_concurrent_streams
	}
	return c
}

// task is one logical server thread serving one object on one stream
// (paper Fig. 3: Thread#1, Thread#2, …).
type task struct {
	stream   *h2.Stream
	obj      *website.Object
	instance string // "obj#n"; empty unless the TxLog or the tracer reads it
	body     []byte
	sent     int
	headers  bool
	waiting  bool // blocked on flow control
	waitBuf  bool // blocked on the socket send buffer
	cached   bool // dynamic object already rendered once (server cache)
	ev       *simtime.Event
}

// Server is the simulated multi-threaded HTTP/2 web server.
type Server struct {
	sched *simtime.Scheduler
	rng   *simtime.Rand
	site  *website.Site
	cfg   ServerConfig
	stack *stack

	tasks       map[uint32]*task
	prio        *h2.PriorityTree // deterministic, priority-ordered resumption
	instances   map[string]int
	rendered    map[string]bool // dynamic pages already generated (cache)
	txLog       []metrics.TxSpan
	payloadOff  int64
	fatalErr    error
	activePeak  int
	tasksServed int

	// A task's dispatch and chunk steps are scheduled through AfterArg
	// with these callbacks, bound once, and the *task as the argument:
	// no closure per chunk.
	dispatchFn func(any)
	stepFn     func(any)

	tr *trace.Tracer
}

// NewServer builds the server endpoint over its TCP connection. ins.Trace
// arms server-layer tracing (task lifecycle); the whole bundle arms the
// server's HTTP/2 connection.
func NewServer(sched *simtime.Scheduler, rng *simtime.Rand, tcp *tcpsim.Conn, site *website.Site, cfg ServerConfig, ins instr.Bundle) (*Server, error) {
	if site == nil {
		return nil, fmt.Errorf("endpoint: NewServer requires a site")
	}
	srv := &Server{
		sched:     sched,
		rng:       rng,
		site:      site,
		cfg:       cfg.withDefaults(),
		tasks:     make(map[uint32]*task),
		prio:      h2.NewPriorityTree(),
		instances: make(map[string]int),
		rendered:  make(map[string]bool),
	}
	srv.tr = ins.Trace
	srv.dispatchFn = srv.dispatch
	srv.stepFn = func(v any) { srv.step(v.(*task)) }
	st, err := newStack(tcp, false, rng, srv.cfg.H2, ins, func(err error) {
		if srv.fatalErr == nil {
			srv.fatalErr = err
		}
	})
	if err != nil {
		return nil, err
	}
	srv.stack = st
	srv.instrumentOutput()
	st.h2c.SetHandlers(h2.Handlers{
		OnStreamHeaders:   srv.onRequest,
		OnStreamReset:     srv.onReset,
		OnWindowAvailable: srv.onWindow,
	})
	tcp.OnSendBufDrain(srv.onSendBufDrain)
	return srv, nil
}

// Start begins listening (TCP passive open) and arms the h2 endpoint.
func (s *Server) Start() {
	s.stack.tcp.Listen()
	s.stack.h2c.Start()
}

// Err returns the first fatal transport/protocol error, or nil.
func (s *Server) Err() error { return s.fatalErr }

// TxLog returns the ground-truth transmission log (one span per DATA
// frame, offsets in cumulative sent payload bytes).
func (s *Server) TxLog() []metrics.TxSpan { return s.txLog }

// DropTxLog stops recording the transmission log, leaving the h2 output
// untapped, and with tracing off tasks spawned after it go unnamed. A
// fleet decoy's server calls it: only the target's log is read.
func (s *Server) DropTxLog() { s.stack.tapH2Out = nil }

// ActivePeak reports the maximum number of concurrently active tasks —
// the "number of HTTP/2 objects processed by the server at an instant".
func (s *Server) ActivePeak() int { return s.activePeak }

// TasksServed reports how many stream-serving tasks were created,
// including duplicate servings of re-requested objects.
func (s *Server) TasksServed() int { return s.tasksServed }

// H2Stats exposes the server's frame counters.
func (s *Server) H2Stats() h2.ConnStats { return s.stack.h2c.Stats() }

// instrumentOutput wraps the h2 output path to record each DATA frame's
// position in the ordered application byte stream. Only the 9-byte header
// (plus the pad-length octet) is examined: a full ParseFrame per frame
// would allocate a decoded Frame just to read its length.
func (s *Server) instrumentOutput() {
	s.stack.tapH2Out = func(frame []byte) {
		hdr, ok := h2.ParseFrameHeader(frame)
		if !ok || hdr.Type != h2.FrameData {
			return
		}
		t := s.tasks[hdr.StreamID]
		if t == nil {
			return
		}
		// Payload length minus padding (one pad-length octet plus the pad
		// bytes) — the same arithmetic the full decoder's stripPadding does.
		dataLen := hdr.Length
		if hdr.Flags.Has(h2.FlagPadded) && hdr.Length >= 1 {
			dataLen -= 1 + int(frame[h2.FrameHeaderSize])
			if dataLen < 0 {
				return // malformed; the peer's decoder would reject it
			}
		}
		s.txLog = append(s.txLog, metrics.TxSpan{
			Instance: t.instance,
			ObjectID: t.obj.ID,
			Offset:   s.payloadOff,
			Len:      dataLen,
			At:       s.sched.Now(),
		})
		s.payloadOff += int64(dataLen)
	}
}

// onRequest spawns a task ("thread") for an incoming GET.
func (s *Server) onRequest(stream *h2.Stream, fields []h2.HeaderField, endStream bool) {
	var path string
	for _, f := range fields {
		if f.Name == ":path" {
			path = f.Value
		}
	}
	obj := s.site.Lookup(path)
	if obj == nil {
		_ = stream.SendHeaders([]h2.HeaderField{{Name: ":status", Value: "404"}}, true)
		return
	}
	s.spawn(stream, obj)
	if s.cfg.PushEmblems && obj.ID == website.ResultsJSID {
		s.pushEmblems(stream)
	}
}

// spawn creates and schedules the serving task ("thread") for obj.
func (s *Server) spawn(stream *h2.Stream, obj *website.Object) {
	t := &task{stream: stream, obj: obj, body: s.site.Body(obj)}
	if s.stack.tapH2Out != nil || s.tr.Enabled() {
		t.instance = fmt.Sprintf("%s#%d", obj.ID, s.instances[obj.ID])
	}
	s.instances[obj.ID]++
	s.tasksServed++
	s.tasks[stream.ID()] = t
	if s.tr.Enabled() {
		s.tr.Emit(trace.LayerServer, "task-spawn",
			trace.Str("instance", t.instance), trace.Num("stream", int64(stream.ID())),
			trace.Num("size", int64(len(t.body))))
	}
	_ = s.prio.Add(stream.ID(), stream.Priority())
	if n := len(s.tasks); n > s.activePeak {
		s.activePeak = n
	}
	// Request parsing + dispatch latency before the thread's first step;
	// dynamic pages pay the render startup cost the first time, then hit
	// the server-side render cache.
	dispatch := s.cfg.DispatchDelay
	sigma := s.cfg.ChunkDelaySigma
	if obj.Dynamic {
		if s.rendered[obj.ID] {
			t.cached = true
		} else {
			dispatch = s.cfg.DynamicDispatch
			sigma = 0.5
		}
	}
	t.ev = s.sched.AfterArg(s.rng.LogNormal(dispatch, sigma), s.dispatchFn, t)
}

// dispatch runs a task's first step once its dispatch latency has
// passed; a dynamic page is in the render cache from then on.
func (s *Server) dispatch(v any) {
	t := v.(*task)
	s.rendered[t.obj.ID] = true
	s.step(t)
}

// pushEmblems implements the §VII server-push defense: promise and serve
// every emblem on the results script's request, in catalog order, so the
// emblem traffic carries no information about the user's ranking and the
// adversary's request-spacing lever never sees emblem GETs.
func (s *Server) pushEmblems(parent *h2.Stream) {
	for p := 0; p < website.PartyCount; p++ {
		obj := s.site.Object(website.EmblemID(p))
		promised, err := s.stack.h2c.Push(parent, []h2.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: s.site.Host},
			{Name: ":path", Value: obj.Path},
		})
		if err != nil {
			return // peer disabled push
		}
		s.spawn(promised, obj)
	}
}

// step performs one thread quantum: enqueue one chunk of the object.
func (s *Server) step(t *task) {
	t.ev = nil
	if s.tasks[t.stream.ID()] != t {
		return // reset raced with the scheduled step
	}
	// Socket-buffer backpressure: a real write would block here.
	if s.stack.tcp.Buffered() > s.effectiveSendBuf() {
		t.waitBuf = true
		s.prio.SetReady(t.stream.ID(), true)
		return
	}
	if !t.headers {
		t.headers = true
		err := t.stream.SendHeaders([]h2.HeaderField{
			{Name: ":status", Value: "200"},
			{Name: "content-type", Value: t.obj.Type},
			{Name: "content-length", Value: strconv.Itoa(len(t.body))},
		}, false)
		if err != nil {
			s.finish(t)
			return
		}
	}
	remaining := len(t.body) - t.sent
	chunk := s.cfg.ChunkSize
	if chunk > remaining {
		chunk = remaining
	}
	last := chunk == remaining
	n, err := t.stream.SendData(t.body[t.sent:t.sent+chunk], last)
	if err != nil {
		s.finish(t)
		return
	}
	t.sent += n
	if t.sent == len(t.body) {
		s.finish(t)
		return
	}
	if n < chunk {
		// Flow control blocked: wait for a window update.
		t.waiting = true
		s.prio.SetReady(t.stream.ID(), true)
		return
	}
	delay := s.cfg.ChunkDelayMedian
	if t.obj.Dynamic && !t.cached {
		delay = s.cfg.DynamicChunkDelay
	}
	t.ev = s.sched.AfterArg(s.rng.LogNormal(delay, s.cfg.ChunkDelaySigma), s.stepFn, t)
}

func (s *Server) finish(t *task) {
	if t.ev != nil {
		s.sched.Cancel(t.ev)
		t.ev = nil
	}
	if s.tr.Enabled() {
		s.tr.Emit(trace.LayerServer, "task-finish",
			trace.Str("instance", t.instance), trace.Num("stream", int64(t.stream.ID())),
			trace.Num("sent", int64(t.sent)), trace.Num("size", int64(len(t.body))))
	}
	delete(s.tasks, t.stream.ID())
	s.prio.Remove(t.stream.ID())
}

// onReset implements the §IV-D server behaviour: the stream's queued
// segments are flushed immediately (the task dies, no more chunks).
func (s *Server) onReset(stream *h2.Stream, code h2.ErrCode, remote bool) {
	if t := s.tasks[stream.ID()]; t != nil {
		s.finish(t)
	}
}

// resume re-schedules a paused task immediately.
func (s *Server) resume(t *task) {
	if t.ev != nil {
		return
	}
	t.waiting = false
	t.waitBuf = false
	s.prio.SetReady(t.stream.ID(), false)
	t.ev = s.sched.AfterArg(0, s.stepFn, t)
}

// resumeBlocked wakes paused tasks matching keep, in priority-tree order
// (deterministic and honoring stream weights/dependencies). Non-matching
// ready tasks are skipped and stay ready.
func (s *Server) resumeBlocked(keep func(*task) bool) {
	var wake, skipped []*task
	for {
		id, ok := s.prio.Next()
		if !ok {
			break
		}
		t := s.tasks[id]
		s.prio.SetReady(id, false)
		if t == nil {
			s.prio.Remove(id)
			continue
		}
		if keep(t) {
			wake = append(wake, t)
		} else {
			skipped = append(skipped, t)
		}
	}
	for _, t := range skipped {
		s.prio.SetReady(t.stream.ID(), true)
	}
	for _, t := range wake {
		s.resume(t)
	}
}

// onWindow resumes tasks blocked on flow control.
func (s *Server) onWindow(stream *h2.Stream) {
	if stream != nil {
		if t := s.tasks[stream.ID()]; t != nil && t.waiting && t.ev == nil {
			s.resume(t)
		}
		return
	}
	s.resumeBlocked(func(t *task) bool { return t.waiting })
}

// effectiveSendBuf is the autotuned admission limit: 2×cwnd clamped to
// [16 KiB, SendBufLimit].
func (s *Server) effectiveSendBuf() int {
	limit := 2 * s.stack.tcp.Cwnd()
	if min := 16 << 10; limit < min {
		limit = min
	}
	if limit > s.cfg.SendBufLimit {
		limit = s.cfg.SendBufLimit
	}
	return limit
}

// onSendBufDrain resumes tasks blocked on the socket buffer once it has
// drained below the limit.
func (s *Server) onSendBufDrain() {
	if s.stack.tcp.Buffered() > s.effectiveSendBuf() {
		return
	}
	s.resumeBlocked(func(t *task) bool { return t.waitBuf })
}
