// Package trace is the cross-layer observability spine of the testbed: a
// deterministic event tracer that every simulated component (netsim,
// tcpsim, h2, adversary, endpoints, monitor) reports into when a trial is
// run with tracing armed. The event stream is the record: a per-kind count
// is the number of events of that kind, and per-component totals live in
// each layer's own Stats.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. A nil *Tracer is the disabled tracer: hot
//     paths guard emission with Enabled() (one pointer test) and build
//     attributes only inside the guard, so a traced-capable build runs the
//     paper's benchmarks unchanged.
//  2. Determinism. Events are stamped from the trial's virtual clock and a
//     monotonic sequence number assigned in emission order; the simulation
//     is single-threaded, so two runs with the same seed produce
//     byte-identical exports. Nothing in this package reads wall-clock
//     time or iterates a map while exporting.
//  3. Bounded memory. Events land in a ring buffer of configurable
//     capacity; once full, the oldest events are overwritten and counted
//     in Dropped, so a million-event trial cannot OOM the harness.
//
// Exporters (see export.go) serialize the stream as JSONL, as Chrome
// trace_event JSON (loadable in chrome://tracing or Perfetto), or as a
// compact text summary of event counts per layer and kind.
package trace

import (
	"sync"
	"time"
)

// Clock supplies event timestamps. *simtime.Scheduler satisfies it; real-
// time users (h2serve) can wrap a wall-clock origin.
type Clock interface {
	Now() time.Duration
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() time.Duration

// Now implements Clock.
func (f ClockFunc) Now() time.Duration { return f() }

// WallClock returns a Clock reporting time elapsed since the call — the
// real-TCP tools use it where no virtual clock exists. Traces stamped from
// it are not deterministic; simulation trials use the scheduler instead.
func WallClock() Clock {
	start := time.Now()
	return ClockFunc(func() time.Duration { return time.Since(start) })
}

// Layer identifies which simulated component emitted an event. Layers
// double as Chrome-trace thread lanes, so one trial renders as one process
// with one row per layer.
type Layer uint8

// Trace layers, ordered as they appear in exports.
const (
	LayerNetsim Layer = iota
	LayerTCP
	LayerH2
	LayerAdversary
	LayerBrowser
	LayerServer
	LayerMonitor
	numLayers
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerNetsim:
		return "netsim"
	case LayerTCP:
		return "tcpsim"
	case LayerH2:
		return "h2"
	case LayerAdversary:
		return "adversary"
	case LayerBrowser:
		return "browser"
	case LayerServer:
		return "server"
	case LayerMonitor:
		return "monitor"
	default:
		return "layer?"
	}
}

// Attr is one typed key/value attribute on an event. Use the Str, Num and
// Dur constructors; the zero Attr is ignored.
type Attr struct {
	Key   string
	Str   string
	Num   int64
	isNum bool
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Str: val} }

// Num builds an integer attribute.
func Num(key string, val int64) Attr { return Attr{Key: key, Num: val, isNum: true} }

// Dur builds a duration attribute, recorded as nanoseconds.
func Dur(key string, d time.Duration) Attr { return Num(key, int64(d)) }

// IsNum reports whether the attribute carries a numeric value.
func (a Attr) IsNum() bool { return a.isNum }

// MaxAttrs is how many attributes one event retains; extra attributes
// passed to Emit are dropped (events stay fixed-size for the ring buffer).
const MaxAttrs = 4

// Event is one trace record.
type Event struct {
	// At is the virtual time the event was emitted.
	At time.Duration
	// Seq is the emission order, unique per tracer. (At, Seq) is the
	// determinism contract: the total order of the stream.
	Seq uint64
	// Layer is the emitting component.
	Layer Layer
	// Kind names the event within its layer ("rto", "enqueue", "phase").
	Kind string
	// Attrs holds up to MaxAttrs attributes; NAttr is how many are set.
	Attrs [MaxAttrs]Attr
	NAttr int
}

// Config tunes a Tracer.
type Config struct {
	// Capacity bounds the event ring buffer. Default 1 << 18 (262144
	// events); older events are overwritten past that.
	Capacity int
	// Concurrent guards the tracer with a mutex for use from
	// multiple goroutines (the real-TCP h2sync stack). Simulation trials
	// are single-threaded and leave it off; a concurrent trace has no
	// deterministic event order.
	Concurrent bool
}

// DefaultCapacity is the default ring-buffer bound.
const DefaultCapacity = 1 << 18

// Tracer collects the events of one trial. The nil *Tracer is the
// disabled tracer: Enabled reports false and Emit is a no-op.
type Tracer struct {
	clock    Clock
	capacity int
	mu       *sync.Mutex // non-nil only when Config.Concurrent

	buf     []Event
	next    int // overwrite cursor once len(buf) == capacity
	seq     uint64
	dropped uint64

	metas []metaKV // trace-wide metadata, exported by WriteChromeTrace
}

// metaKV is one trace-wide metadata pair (e.g. the canonical flow ID).
type metaKV struct{ key, val string }

// New builds a tracer stamping events from the given clock.
func New(clock Clock, cfg Config) *Tracer {
	if clock == nil {
		clock = ClockFunc(func() time.Duration { return 0 })
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	t := &Tracer{clock: clock, capacity: cfg.Capacity}
	if cfg.Concurrent {
		t.mu = &sync.Mutex{}
	}
	return t
}

// Enabled reports whether emission does anything. Hot paths call it before
// building attributes so the disabled path costs one branch and zero
// allocations.
func (t *Tracer) Enabled() bool { return t != nil }

// SetClock rebinds the timestamp source. Callers that build a tracer
// before the component owning the clock exists (a TrialConfig is assembled
// before its scheduler) pass New a nil clock and let the assembler rebind;
// core.NewTestbed does this with the trial's virtual clock. No-op on nil.
func (t *Tracer) SetClock(clock Clock) {
	if t == nil || clock == nil {
		return
	}
	t.clock = clock
}

// SetMeta attaches a trace-wide metadata pair, exported in the Chrome
// trace's otherData block (last write per key wins). core.NewTestbed
// stamps the canonical flow ID here so the Chrome view joins against the
// pcap export and the flowseq feature rows. No-op on nil.
func (t *Tracer) SetMeta(key, val string) {
	if t == nil {
		return
	}
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	for i := range t.metas {
		if t.metas[i].key == key {
			t.metas[i].val = val
			return
		}
	}
	t.metas = append(t.metas, metaKV{key, val})
}

// Metas returns the trace-wide metadata pairs in insertion order as
// alternating key, value strings.
func (t *Tracer) Metas() []string {
	if t == nil {
		return nil
	}
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	out := make([]string, 0, 2*len(t.metas))
	for _, kv := range t.metas {
		out = append(out, kv.key, kv.val)
	}
	return out
}

// Emit records one event stamped with the clock's current time. Calling it
// on a nil tracer is a no-op; attributes beyond MaxAttrs are dropped.
func (t *Tracer) Emit(layer Layer, kind string, attrs ...Attr) {
	if t == nil {
		return
	}
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	ev := Event{At: t.clock.Now(), Seq: t.seq, Layer: layer, Kind: kind}
	t.seq++
	n := len(attrs)
	if n > MaxAttrs {
		n = MaxAttrs
	}
	copy(ev.Attrs[:], attrs[:n])
	ev.NAttr = n
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % t.capacity
	t.dropped++
}

// Events returns the retained events in (At, Seq) order. The slice is a
// copy; mutating it does not affect the tracer.
func (t *Tracer) Events() []Event {
	events, _ := t.snapshot()
	return events
}

// snapshot returns a copy of the retained events in (At, Seq) order and
// the ring's dropped count, both read under one lock so that an export
// racing a concurrent Emit reports a consistent pair.
func (t *Tracer) snapshot() ([]Event, uint64) {
	if t == nil {
		return nil, 0
	}
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out, t.dropped
}

// Len reports how many events are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	return len(t.buf)
}

// Dropped reports how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	return t.dropped
}
