// Package flowseq is the streaming per-flow, per-stream event-sequence
// analytics engine (the burstshark of this testbed): it consumes the
// monitor's TLS-record feed, one endpoint's HTTP/2 frame feed and the
// browser's request log online — no post-hoc log scraping — and maintains,
// per flow, the wire-side burst table (burst sizes, inter-burst gaps,
// clean-slate signature spans) and per-stream state timelines
// (request → response headers → first byte → bursts → reset/complete),
// including the serialized-vs-multiplexed classification per object that
// the paper's whole attack hinges on. This is the feature feed the
// ROADMAP's middlebox-side detector and open-world corpus classifier
// train on.
//
// The package follows the repository's nil-receiver contract: a nil
// *Analyzer (the default everywhere) makes every hook a no-op, so a
// feature-capable build costs nothing when -features is off. One Analyzer
// observes one flow, normally one trial; trials flush into a shared
// Collector (see collector.go) keyed by trial index, which makes exports
// deterministic at any sweep worker count.
package flowseq

import (
	"sync"
	"time"

	"h2privacy/internal/trace"
)

// SchemaVersion identifies the feature-row schema carried by the JSONL
// meta line, the CSV header and the run manifest's features receipt. Bump
// it when a column changes meaning.
const SchemaVersion = 1

// BurstGap is the burst segmentation threshold: two application records
// (or two DATA frames of one stream) separated by more than this gap
// belong to different bursts. It matches predict.Config's default — both
// views segment the same way so wire bursts join against stream bursts.
const BurstGap = 25 * time.Millisecond

// SpanSilence is the clean-slate detector's silence gate: a client→server
// control record arriving at least this long after the last substantial
// server→client record opens a candidate reset span (a starved client
// sends almost no flow-control updates, so a late volley of small control
// records is the browser resetting its streams).
const SpanSilence = 100 * time.Millisecond

// spanDataMin is the server→client plaintext size that counts as "the
// server is talking again", closing an open span and resetting the
// silence clock. Mirrors the monitor's 100-byte payload gate.
const spanDataMin = 100

// frameHeaderLen is what each TLS application record carries in HTTP/2
// frame header bytes — subtracted when estimating object payload from
// record sizes, exactly as the predictor does.
const frameHeaderLen = 9

// HTTP/2 frame-type and flag values the analyzer interprets (RFC 7540;
// plain constants so h2 can feed the hook without an import cycle).
const (
	frameData    = 0x0
	frameHeaders = 0x1
	frameRST     = 0x3

	flagEndStream = 0x1
)

// Analyzer observes one flow. The nil Analyzer is the disabled analyzer:
// Enabled reports false and every hook is a nil-receiver no-op. Within a
// simulated trial all feeds run on the scheduler goroutine; the real-TCP
// server arms Concurrent to guard the hooks with a mutex.
type Analyzer struct {
	mu    *sync.Mutex // non-nil only after Concurrent
	clock trace.Clock
	col   *Collector
	trial int
	flow  string

	done bool
	out  *FlowFeatures

	// Wire view (monitor record feed).
	wire        [2]wireDir // 0 = c2s, 1 = s2c
	spans       []Span
	spanOpen    bool
	spanStart   time.Duration
	spanResets  int
	lastS2CData time.Duration
	anyS2CData  bool
	records     [2]int // every fed record, by direction (0 = c2s)
	gets        int
	controls    int
	tainted     int
	lastEvent   time.Duration

	// Endpoint view (h2 frame feed + browser request labels).
	streams map[uint32]*streamState
	active  []*streamState // started (first byte seen) and not yet terminal
}

// wireDir builds one direction's burst table incrementally.
type wireDir struct {
	bursts  []Burst
	open    bool
	start   time.Duration
	last    time.Duration
	records int
	wire    int
	body    int
	prevEnd time.Duration
	hasPrev bool
}

// streamState is one HTTP/2 stream's in-progress timeline.
type streamState struct {
	id         uint32
	object     string
	kind       string
	objDone    bool
	end        string // "" while open, else "complete" / "reset"
	requestAt  time.Duration
	headersAt  time.Duration
	firstAt    time.Duration
	lastAt     time.Duration
	endAt      time.Duration
	hasRequest bool
	hasHeaders bool
	hasFirst   bool

	bytes       int
	frames      int
	interleaved int // other streams' DATA frames during this stream's span

	burstBytes []int
	burstOpen  bool
	burstLast  time.Duration
	burstAccum int
	gapMax     time.Duration
	gapSum     time.Duration
	gapCount   int

	activeIdx int
}

// New returns an analyzer for the given flat trial index flushing into
// col at Finalize. col may be nil for a standalone analyzer (tests, ad-hoc
// use), whose features then reach no collector.
func New(trial int, col *Collector) *Analyzer {
	return &Analyzer{trial: trial, col: col, streams: make(map[uint32]*streamState)}
}

// Enabled reports whether the hooks do anything. Hot paths may call it
// before assembling arguments; the disabled path is one nil check.
func (a *Analyzer) Enabled() bool { return a != nil }

// Concurrent guards every hook with a mutex for goroutine-per-stream
// callers (h2serve). Simulated trials are single-threaded and skip it.
func (a *Analyzer) Concurrent() {
	if a == nil || a.mu != nil {
		return
	}
	a.mu = &sync.Mutex{}
}

// SetClock rebinds the timestamp source — core.NewTestbed points it at the
// trial's virtual clock, as it does the tracer's, and the real-TCP server
// at trace.WallClock. No-op on nil.
func (a *Analyzer) SetClock(c trace.Clock) {
	if a == nil || c == nil {
		return
	}
	a.clock = c
}

// SetFlow names the flow all feature rows carry — the same canonical
// identifier capture.FlowID stamps into pcap and Chrome-trace exports, so
// external tooling can join all three views. No-op on nil.
func (a *Analyzer) SetFlow(id string) {
	if a == nil {
		return
	}
	a.flow = id
}

// Flow returns the flow identifier SetFlow named; empty on nil.
func (a *Analyzer) Flow() string {
	if a == nil {
		return ""
	}
	return a.flow
}

func (a *Analyzer) now() time.Duration {
	if a.clock == nil {
		return 0
	}
	return a.clock.Now()
}

func (a *Analyzer) lock() {
	if a.mu != nil {
		a.mu.Lock()
	}
}

func (a *Analyzer) unlock() {
	if a.mu != nil {
		a.mu.Unlock()
	}
}

// Record ingests one TLS record observed at the gateway (the monitor's
// feed): direction, on-stream and inferred-plaintext sizes, and the
// monitor's GET/control/taint classification. Builds the wire-side burst
// tables and the clean-slate span detector. No-op on nil.
func (a *Analyzer) Record(c2s bool, wireLen, plainLen int, isGET, isControl, tainted bool) {
	if a == nil {
		return
	}
	a.lock()
	defer a.unlock()
	t := a.now()
	a.lastEvent = t
	a.records[dirIndex(c2s)]++
	if isGET {
		a.gets++
	}
	if isControl {
		a.controls++
	}
	if plainLen <= 0 {
		return // handshake/CCS records carry no application payload
	}
	if tainted {
		// Retransmitted bytes replay traffic already accounted for; they
		// never extend or split a burst (the predictor's rule).
		a.tainted++
		return
	}
	if c2s {
		if isControl {
			if !a.spanOpen && a.anyS2CData && t-a.lastS2CData >= SpanSilence {
				a.spanOpen, a.spanStart, a.spanResets = true, t, 0
			}
			if a.spanOpen {
				a.spanResets++
			}
		}
	} else if plainLen >= spanDataMin {
		if a.spanOpen {
			a.closeSpan(t)
		}
		a.lastS2CData, a.anyS2CData = t, true
	}
	d := &a.wire[dirIndex(c2s)]
	if d.open && t-d.last > BurstGap {
		d.close(dirName(c2s))
	}
	if !d.open {
		d.open = true
		d.start = t
		d.records, d.wire, d.body = 0, 0, 0
	} else if body := plainLen - frameHeaderLen; body > 0 {
		// The first record of a burst is response HEADERS (no object
		// bytes); later records are DATA whose plaintext carries one frame
		// header of overhead — predict.Analyzer's size model.
		d.body += body
	}
	d.records++
	d.wire += wireLen
	d.last = t
}

func (a *Analyzer) closeSpan(end time.Duration) {
	a.spans = append(a.spans, Span{
		Index:   len(a.spans),
		StartNS: int64(a.spanStart),
		EndNS:   int64(end),
		Resets:  a.spanResets,
	})
	a.spanOpen = false
}

func (d *wireDir) close(dir string) {
	gap := int64(-1)
	if d.hasPrev {
		gap = int64(d.start - d.prevEnd)
	}
	d.bursts = append(d.bursts, Burst{
		Dir:     dir,
		Index:   len(d.bursts),
		StartNS: int64(d.start),
		EndNS:   int64(d.last),
		GapNS:   gap,
		Records: d.records,
		Wire:    d.wire,
		Body:    d.body,
	})
	d.prevEnd, d.hasPrev = d.last, true
	d.open = false
}

func dirIndex(c2s bool) int {
	if c2s {
		return 0
	}
	return 1
}

func dirName(c2s bool) string {
	if c2s {
		return "c2s"
	}
	return "s2c"
}

// H2Frame ingests one HTTP/2 frame from exactly one endpoint of the flow
// (core wires the browser's connection; h2serve wires the server's —
// wiring both halves of the same flow would double-count). client reports
// that endpoint's role, sent whether the frame left it or arrived; the
// analyzer resolves direction from the pair. n is the frame payload
// length. No-op on nil.
func (a *Analyzer) H2Frame(client, sent bool, ftype uint8, stream uint32, n int, flags uint8) {
	if a == nil || stream == 0 {
		return
	}
	a.lock()
	defer a.unlock()
	t := a.now()
	a.lastEvent = t
	toClient := sent != client
	switch ftype {
	case frameData:
		if !toClient {
			return
		}
		s := a.stream(stream)
		if s.end != "" {
			return // late data after reset: the timeline is closed
		}
		if !s.hasFirst {
			s.hasFirst, s.firstAt = true, t
			a.activate(s)
		}
		// Every other in-flight stream sees this frame interleaved into
		// its span — zero interleavings is the serialized signature.
		for _, o := range a.active {
			if o != s {
				o.interleaved++
			}
		}
		if s.burstOpen && t-s.burstLast > BurstGap {
			gap := t - s.burstLast
			s.burstBytes = append(s.burstBytes, s.burstAccum)
			s.burstAccum = 0
			s.gapSum += gap
			s.gapCount++
			if gap > s.gapMax {
				s.gapMax = gap
			}
		}
		s.burstOpen = true
		s.burstAccum += n
		s.burstLast = t
		s.bytes += n
		s.frames++
		s.lastAt = t
		if flags&flagEndStream != 0 {
			a.finish(s, "complete", t)
		}
	case frameHeaders:
		s := a.stream(stream)
		if toClient {
			if !s.hasHeaders {
				s.hasHeaders, s.headersAt = true, t
			}
			if flags&flagEndStream != 0 {
				a.finish(s, "complete", t)
			}
		} else if !s.hasRequest {
			// Request on the wire; the browser's Request hook usually beat
			// us to it with the object label, but the server-side view
			// (h2serve) only has this.
			s.hasRequest, s.requestAt = true, t
		}
	case frameRST:
		a.finish(a.stream(stream), "reset", t)
	}
}

// Request labels a stream with the browser's intent: which object it
// fetches and why (initial/retry/re-request/pushed). No-op on nil.
func (a *Analyzer) Request(object string, stream uint32, kind string) {
	if a == nil {
		return
	}
	a.lock()
	defer a.unlock()
	t := a.now()
	a.lastEvent = t
	s := a.stream(stream)
	if s.object == "" {
		s.object = object
	}
	if s.kind == "" {
		s.kind = kind
	}
	if !s.hasRequest {
		s.hasRequest, s.requestAt = true, t
	}
}

// ObjectDone marks the stream that actually delivered its object — the
// one whose serialized/multiplexed label classifies the object. No-op on
// nil.
func (a *Analyzer) ObjectDone(object string, stream uint32) {
	if a == nil {
		return
	}
	a.lock()
	defer a.unlock()
	a.lastEvent = a.now()
	s := a.stream(stream)
	if s.object == "" {
		s.object = object
	}
	s.objDone = true
}

func (a *Analyzer) stream(id uint32) *streamState {
	if s, ok := a.streams[id]; ok {
		return s
	}
	s := &streamState{id: id, activeIdx: -1}
	a.streams[id] = s
	return s
}

func (a *Analyzer) activate(s *streamState) {
	if s.activeIdx >= 0 {
		return
	}
	s.activeIdx = len(a.active)
	a.active = append(a.active, s)
}

func (a *Analyzer) deactivate(s *streamState) {
	if s.activeIdx < 0 {
		return
	}
	last := len(a.active) - 1
	moved := a.active[last]
	a.active[s.activeIdx] = moved
	moved.activeIdx = s.activeIdx
	a.active = a.active[:last]
	s.activeIdx = -1
}

func (a *Analyzer) finish(s *streamState, state string, t time.Duration) {
	if s.end != "" {
		return
	}
	s.end = state
	s.endAt = t
	a.deactivate(s)
}

// Sibling returns a fresh analyzer for another flow of the same trial:
// same flat trial index, same collector, same clock — so a fleet trial's
// member flows all land in one collector keyed (trial, flow). Nil
// receiver returns nil (the whole sibling family stays disabled).
func (a *Analyzer) Sibling(flow string) *Analyzer {
	if a == nil {
		return nil
	}
	s := New(a.trial, a.col)
	s.clock = a.clock
	s.flow = flow
	return s
}

// LiveFeatures is a mid-trial snapshot of the capture-visible signals a
// shared-bottleneck adversary can score a flow by, without waiting for
// Finalize: request activity, control chatter, recency, and the
// server→client response-burst body estimate (the size signature the
// paper's attack fingerprints pages with).
type LiveFeatures struct {
	Flow string
	// GETs and Controls are the monitor's client→server record counts.
	GETs     int
	Controls int
	// LastEvent is the most recent record/frame timestamp.
	LastEvent time.Duration
	// MaxBurstBody is the largest estimated object payload of any
	// server→client burst so far, the still-open burst included — the
	// response-size signature the paper's attack fingerprints pages with.
	// A flow whose handshake chatter closed a tiny first burst still
	// scores by its page response.
	MaxBurstBody int
	// S2CBursts counts closed server→client bursts so far.
	S2CBursts int
}

// Live snapshots the selector-facing features. Nil receiver returns the
// zero value — an unobserved flow scores nothing.
func (a *Analyzer) Live() LiveFeatures {
	if a == nil {
		return LiveFeatures{}
	}
	a.lock()
	defer a.unlock()
	lf := LiveFeatures{
		Flow:      a.flow,
		GETs:      a.gets,
		Controls:  a.controls,
		LastEvent: a.lastEvent,
		S2CBursts: len(a.wire[1].bursts),
	}
	for i := range a.wire[1].bursts {
		if b := a.wire[1].bursts[i].Body; b > lf.MaxBurstBody {
			lf.MaxBurstBody = b
		}
	}
	if a.wire[1].open && a.wire[1].body > lf.MaxBurstBody {
		lf.MaxBurstBody = a.wire[1].body
	}
	return lf
}
