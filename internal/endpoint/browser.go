package endpoint

import (
	"fmt"
	"slices"
	"time"

	"h2privacy/internal/flowseq"
	"h2privacy/internal/h2"
	"h2privacy/internal/instr"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/trace"
	"h2privacy/internal/website"
)

// BrowserConfig tunes the browser model.
type BrowserConfig struct {
	// RetryTimeout: a request whose response has not started after this
	// long is re-issued on a fresh stream (the duplicate GETs behind the
	// paper's §IV-B "retransmission requests", which the server answers
	// with duplicate copies). Default 300 ms.
	RetryTimeout time.Duration
	// MaxRetries bounds duplicate GETs per object. Default 3.
	MaxRetries int
	// ResetTimeout: when no response byte arrives on any open fetch for
	// this long, the browser resets all open streams and re-requests what
	// it still needs (§IV-D). Doubles after each reset, mirroring the
	// client backing off. Default 5 s (the paper's client reset after
	// ≈6 s of drops).
	ResetTimeout time.Duration
	// MaxResets bounds reset cycles before declaring the load broken.
	// Default 4.
	MaxResets int
	// ReRequestDelay is the think time between a reset cycle and the
	// first re-request: the browser re-parses and re-discovers what it
	// needs. Default 1.2 s (mass-cancel on a large page forces a full
	// re-layout before fetches restart).
	ReRequestDelay time.Duration
	// ReRequestGap spaces successive re-requests after a reset (resources
	// are re-discovered progressively, highest priority first — the
	// paper's "client resends GET requests if a high priority object is
	// not yet received"). Default 300 ms.
	ReRequestGap time.Duration
	// AcceptPush advertises ENABLE_PUSH and adopts pushed streams for
	// objects the plan wants (needed for the §VII server-push defense).
	AcceptPush bool
	// ConnWindow is the connection-level receive window the browser
	// raises to after SETTINGS (Firefox ≈12 MiB). Default 8 MiB.
	ConnWindow uint32
	// H2 tunes the client HTTP/2 endpoint. InitialWindowSize defaults to
	// 1 MiB here (browser-like), not the RFC 65535.
	H2 h2.Config
}

func (c BrowserConfig) withDefaults() BrowserConfig {
	if c.RetryTimeout == 0 {
		c.RetryTimeout = time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.ResetTimeout == 0 {
		c.ResetTimeout = 5 * time.Second
	}
	if c.MaxResets == 0 {
		c.MaxResets = 4
	}
	if c.ReRequestDelay == 0 {
		c.ReRequestDelay = 1200 * time.Millisecond
	}
	if c.ReRequestGap == 0 {
		c.ReRequestGap = 300 * time.Millisecond
	}
	if c.ConnWindow == 0 {
		c.ConnWindow = 8 << 20
	}
	if c.H2.InitialWindowSize == 0 {
		c.H2.InitialWindowSize = 1 << 20
	}
	if c.AcceptPush {
		c.H2.EnablePush = true
	}
	return c
}

// RequestKind classifies entries of the browser's request log.
type RequestKind int

// Request kinds.
const (
	RequestInitial   RequestKind = iota + 1 // first, plan-scheduled request
	RequestRetry                            // duplicate GET for a stalled response
	RequestReRequest                        // re-request after a reset cycle
	RequestPushed                           // server push adopted in place of a GET
)

// String names the kind.
func (k RequestKind) String() string {
	switch k {
	case RequestInitial:
		return "initial"
	case RequestRetry:
		return "retry"
	case RequestReRequest:
		return "re-request"
	case RequestPushed:
		return "pushed"
	default:
		return "kind?"
	}
}

// RequestEvent is one entry of the browser request log.
type RequestEvent struct {
	Time     time.Duration
	ObjectID string
	StreamID uint32
	Kind     RequestKind
}

// fetch tracks one object the browser wants.
type fetch struct {
	obj       *website.Object
	issued    bool
	started   bool // first response byte seen
	done      bool
	doneAt    time.Duration
	retries   int
	streams   []uint32      // ids of the streams carrying it, ascending (see addStream)
	streamBuf [2]uint32     // backs streams: a fetch rarely needs more
	retry     simtime.Timer // duplicate-GET timer (see armRetry)
	triggered []int         // plan step indices waiting on this object's completion
	// deadlineFrom anchors the completion deadline: the fetch must finish
	// within the browser's (backed-off) patience of this instant or the
	// reset cycle fires.
	deadlineFrom time.Duration
}

// Result summarizes one page load.
type Result struct {
	// Completed maps object id → completion time.
	Completed map[string]time.Duration
	// Requests is the full request log, in issuance order.
	Requests []RequestEvent
	// AppRetries counts duplicate GETs for stalled responses.
	AppRetries int
	// Resets counts §IV-D reset cycles (all open streams RST + re-request).
	Resets int
	// Broken reports a dead transport or reset budget exhaustion.
	Broken bool
	// BrokenReason explains Broken.
	BrokenReason string
}

// Browser is the simulated client driving one page load.
type Browser struct {
	sched *simtime.Scheduler
	rng   *simtime.Rand
	site  *website.Site
	plan  *website.Plan
	cfg   BrowserConfig
	stack *stack

	fetches  map[string]*fetch // by object id
	byStream map[uint32]*fetch
	result   Result

	started      bool
	lastProgress time.Duration
	resetWait    time.Duration
	retryWait    time.Duration
	stall        simtime.Timer // §IV-D stall detector (see armStallCheck)
	finished     bool

	tr *trace.Tracer
	fl *flowseq.Analyzer
}

// NewBrowser builds the browser endpoint over its TCP connection. ins.Trace
// arms browser-layer tracing (requests, resets, completions) and ins.Flows
// receives request and object-done annotations, which label the flowseq
// analyzer's per-stream features with object IDs and request kinds; the
// whole bundle arms the browser's HTTP/2 connection.
func NewBrowser(sched *simtime.Scheduler, rng *simtime.Rand, tcp *tcpsim.Conn, site *website.Site, plan *website.Plan, cfg BrowserConfig, ins instr.Bundle) (*Browser, error) {
	if site == nil || plan == nil {
		return nil, fmt.Errorf("endpoint: NewBrowser requires a site and plan")
	}
	b := &Browser{
		sched:    sched,
		rng:      rng,
		site:     site,
		plan:     plan,
		cfg:      cfg.withDefaults(),
		fetches:  make(map[string]*fetch),
		byStream: make(map[uint32]*fetch),
		result:   Result{Completed: make(map[string]time.Duration)},
	}
	b.resetWait = b.cfg.ResetTimeout
	b.retryWait = b.cfg.RetryTimeout
	b.stall.Init(sched, b.onStallCheck)
	b.tr = ins.Trace
	b.fl = ins.Flows
	st, err := newStack(tcp, true, rng, b.cfg.H2, ins, func(err error) { b.break_(err.Error()) })
	if err != nil {
		return nil, err
	}
	b.stack = st
	st.h2c.SetHandlers(h2.Handlers{
		OnStreamHeaders: func(s *h2.Stream, fields []h2.HeaderField, endStream bool) {
			b.onResponseEvent(s, endStream)
		},
		OnStreamData: func(s *h2.Stream, data []byte, endStream bool) {
			b.onResponseEvent(s, endStream)
		},
		OnStreamReset: func(s *h2.Stream, code h2.ErrCode, remote bool) {
			delete(b.byStream, s.ID())
		},
		OnPushPromise: func(parent, promised *h2.Stream, fields []h2.HeaderField) {
			b.onPush(promised, fields)
		},
	})
	tcp.OnStateChange(func(state tcpsim.State) {
		switch state {
		case tcpsim.StateEstablished:
			if !b.started {
				b.started = true
				st.tls.Start()
			}
		case tcpsim.StateBroken:
			b.break_("transport: " + tcp.Err().Error())
		}
	})
	st.onEstablished = func() {
		st.h2c.RaiseConnWindow(b.cfg.ConnWindow)
		b.lastProgress = sched.Now()
		b.armStallCheck()
		b.issueStep(0)
	}
	return b, nil
}

// Start opens the TCP connection; the page load proceeds automatically.
func (b *Browser) Start() {
	b.stack.h2c.Start() // queued until the TLS handshake completes
	b.stack.tcp.Connect()
}

// Result returns the page-load summary (valid any time; final once the
// simulation quiesces).
func (b *Browser) Result() *Result { return &b.result }

// Done reports whether every planned object completed.
func (b *Browser) Done() bool {
	return len(b.result.Completed) == len(b.plan.Steps)
}

// H2Stats exposes the client's frame counters.
func (b *Browser) H2Stats() h2.ConnStats { return b.stack.h2c.Stats() }

// break_ marks the load broken and stops all timers.
func (b *Browser) break_(reason string) {
	if b.finished || b.result.Broken {
		return
	}
	b.result.Broken = true
	b.result.BrokenReason = reason
	if b.tr.Enabled() {
		b.tr.Emit(trace.LayerBrowser, "broken", trace.Str("reason", reason))
	}
	b.cancelTimers()
}

func (b *Browser) cancelTimers() {
	b.stall.Stop()
	for _, f := range b.fetches {
		f.retry.Stop()
	}
}

// issueStep issues the plan step at index i (if due) and schedules its
// successor.
func (b *Browser) issueStep(i int) {
	if b.result.Broken || i >= len(b.plan.Steps) {
		return
	}
	step := b.plan.Steps[i]
	f := b.ensureFetch(step.ObjectID)
	if !f.issued {
		f.issued = true
		b.request(f, RequestInitial)
	}
	// Chain or register the next step.
	next := i + 1
	if next >= len(b.plan.Steps) {
		return
	}
	ns := b.plan.Steps[next]
	if ns.TriggerDone == "" {
		b.sched.After(ns.Gap, func() { b.issueStep(next) })
		return
	}
	dep := b.ensureFetch(ns.TriggerDone)
	if dep.done {
		b.sched.After(ns.Gap, func() { b.issueStep(next) })
		return
	}
	dep.triggered = append(dep.triggered, next)
}

func (b *Browser) ensureFetch(objectID string) *fetch {
	if f := b.fetches[objectID]; f != nil {
		return f
	}
	obj := b.site.Object(objectID)
	if obj == nil {
		panic("endpoint: plan references unknown object " + objectID)
	}
	f := &fetch{obj: obj}
	f.streams = f.streamBuf[:0]
	f.retry.Init(b.sched, func() { b.onRetry(f) })
	b.fetches[objectID] = f
	return f
}

// request opens a stream for the fetch.
func (b *Browser) request(f *fetch, kind RequestKind) {
	if b.result.Broken || f.done {
		return
	}
	fields := []h2.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: b.site.Host},
		{Name: ":path", Value: f.obj.Path},
	}
	s, err := b.stack.h2c.OpenStream(fields, true, h2.PriorityParam{})
	if err != nil {
		b.break_("open stream: " + err.Error())
		return
	}
	f.addStream(s.ID())
	if kind != RequestRetry {
		// A fresh (or re-)request restarts the completion deadline; a
		// retry does not — the object is still starving.
		f.deadlineFrom = b.sched.Now()
	}
	b.byStream[s.ID()] = f
	b.result.Requests = append(b.result.Requests, RequestEvent{
		Time:     b.sched.Now(),
		ObjectID: f.obj.ID,
		StreamID: s.ID(),
		Kind:     kind,
	})
	if b.tr.Enabled() {
		b.tr.Emit(trace.LayerBrowser, "request",
			trace.Str("object", f.obj.ID), trace.Num("stream", int64(s.ID())),
			trace.Str("kind", kind.String()))
	}
	if b.fl.Enabled() {
		b.fl.Request(f.obj.ID, s.ID(), kind.String())
	}
	b.armRetry(f)
}

// armRetry schedules the duplicate-GET timer for a not-yet-started fetch.
func (b *Browser) armRetry(f *fetch) {
	f.retry.Reset(b.sched.Now() + b.retryWait)
}

// onRetry re-issues a fetch whose response has not started in time.
func (b *Browser) onRetry(f *fetch) {
	if f.done || f.started || b.result.Broken {
		return
	}
	if f.retries >= b.cfg.MaxRetries {
		return // leave it to the stall/reset machinery
	}
	f.retries++
	b.result.AppRetries++
	b.request(f, RequestRetry)
}

// onPush adopts a pushed stream: if the plan wants the object and it is
// not yet complete, the push replaces the GET the browser would have sent.
func (b *Browser) onPush(promised *h2.Stream, fields []h2.HeaderField) {
	var path string
	for _, f := range fields {
		if f.Name == ":path" {
			path = f.Value
		}
	}
	obj := b.site.Lookup(path)
	if obj == nil {
		promised.Reset(h2.ErrCodeRefusedStream)
		return
	}
	f := b.ensureFetch(obj.ID)
	if f.done {
		promised.Reset(h2.ErrCodeCancel)
		return
	}
	f.issued = true // the push replaces our request
	f.deadlineFrom = b.sched.Now()
	f.addStream(promised.ID())
	b.byStream[promised.ID()] = f
	b.result.Requests = append(b.result.Requests, RequestEvent{
		Time:     b.sched.Now(),
		ObjectID: obj.ID,
		StreamID: promised.ID(),
		Kind:     RequestPushed,
	})
	if b.fl.Enabled() {
		b.fl.Request(obj.ID, promised.ID(), RequestPushed.String())
	}
}

// onResponseEvent handles headers/data arriving for a stream.
func (b *Browser) onResponseEvent(s *h2.Stream, endStream bool) {
	f := b.byStream[s.ID()]
	if f == nil {
		return
	}
	b.lastProgress = b.sched.Now()
	f.started = true
	f.retry.Stop()
	if endStream && !f.done {
		f.done = true
		f.doneAt = b.sched.Now()
		b.result.Completed[f.obj.ID] = f.doneAt
		if b.tr.Enabled() {
			b.tr.Emit(trace.LayerBrowser, "object-done",
				trace.Str("object", f.obj.ID), trace.Num("stream", int64(s.ID())))
		}
		if b.fl.Enabled() {
			b.fl.ObjectDone(f.obj.ID, s.ID())
		}
		// Cancel sibling duplicate streams; the object is in.
		for _, id := range f.streams {
			if id == s.ID() {
				continue
			}
			if sib := b.stack.h2c.Stream(id); sib != nil {
				sib.Reset(h2.ErrCodeCancel)
			}
			delete(b.byStream, id)
		}
		for _, idx := range f.triggered {
			idx := idx
			b.sched.After(b.plan.Steps[idx].Gap, func() { b.issueStep(idx) })
		}
		f.triggered = nil
		if b.Done() {
			b.finished = true
			b.cancelTimers()
		}
	}
}

// armStallCheck runs the §IV-D stall detector: a per-request completion
// deadline (Firefox-style response timeout). When any outstanding fetch
// has been pending longer than the browser's current patience — stray
// trickled bytes do not count as health — the browser resets every open
// stream and re-requests what it still needs, backing its patience off.
func (b *Browser) armStallCheck() {
	b.stall.Reset(b.sched.Now() + 250*time.Millisecond)
}

func (b *Browser) onStallCheck() {
	if b.result.Broken || b.finished {
		return
	}
	open := b.openIncomplete()
	now := b.sched.Now()
	for _, f := range open {
		if now-f.deadlineFrom >= b.resetWait {
			b.doReset(open)
			break
		}
	}
	b.armStallCheck()
}

// addStream records a stream carrying the fetch. The ids stay ascending,
// so every loop that resets them sends its RSTs (and so the whole wire
// trace) in a reproducible order: a pushed stream's even id can be lower
// than a request's.
func (f *fetch) addStream(id uint32) {
	i, _ := slices.BinarySearch(f.streams, id)
	f.streams = slices.Insert(f.streams, i, id)
}

// openIncomplete returns fetches that were issued but have not completed.
func (b *Browser) openIncomplete() []*fetch {
	var out []*fetch
	for _, step := range b.plan.Steps {
		f := b.fetches[step.ObjectID]
		if f != nil && f.issued && !f.done {
			out = append(out, f)
		}
	}
	return out
}

// doReset is the paper's clean-slate cycle: RST every open stream (the
// server flushes its queues), double the patience, and re-request the
// missing objects in plan order.
func (b *Browser) doReset(open []*fetch) {
	if b.result.Resets >= b.cfg.MaxResets {
		b.break_(fmt.Sprintf("gave up after %d reset cycles", b.result.Resets))
		return
	}
	b.result.Resets++
	if b.tr.Enabled() {
		b.tr.Emit(trace.LayerBrowser, "reset-cycle",
			trace.Num("cycle", int64(b.result.Resets)), trace.Num("open", int64(len(open))),
			trace.Dur("patience", b.resetWait))
	}
	// Back off all patience after a reset: the client has learned the
	// path is lossy (§IV-D: "the client's TCP also waits for a longer
	// time before attempting to send fast-retransmission requests").
	b.resetWait *= 2
	b.retryWait *= 2
	for _, f := range open {
		for _, id := range f.streams {
			if s := b.stack.h2c.Stream(id); s != nil {
				s.Reset(h2.ErrCodeCancel)
			}
			delete(b.byStream, id)
		}
		f.streams = f.streams[:0]
		f.started = false
		f.deadlineFrom = b.sched.Now()
		f.retry.Stop()
	}
	b.lastProgress = b.sched.Now()
	// Re-request in plan (priority) order: first after the re-parse
	// think time, then progressively as the browser re-discovers needs.
	gap := b.cfg.ReRequestDelay
	for _, f := range open {
		f := f
		b.sched.After(gap, func() { b.request(f, RequestReRequest) })
		gap += b.cfg.ReRequestGap
	}
}
