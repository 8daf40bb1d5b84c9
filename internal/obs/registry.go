// Package obs is the attack observatory: a label-aware metrics registry
// (counters, gauges, fixed-bucket histograms) with deterministic snapshots
// and two exporters — Prometheus/OpenMetrics text exposition and canonical
// JSON — plus a live debug HTTP server (/metrics, /healthz, /debug/vars,
// /debug/pprof, trace-ring download) the cmd tools arm with -debug-addr.
//
// Design constraints, in order:
//
//  1. Lock-cheap hot paths. Counter/Gauge updates are single atomic ops;
//     Histogram.Observe is a binary search plus three atomics; Vec lookups
//     take only an RWMutex read lock on the hit path and callers cache the
//     returned instrument for true hot loops. Nothing on the update path
//     allocates.
//  2. Zero cost when unarmed. The nil instrument is the disabled
//     instrument: every method on a nil *Counter, *Gauge, *Histogram or
//     their Vecs is a no-op, and a nil *Registry hands out nil
//     instruments, so components keep unconditional Inc/Set/Observe calls
//     whether or not a registry is wired in.
//  3. Deterministic snapshots. Snapshot sorts families by name and series
//     by label values, so two same-seed sweeps export byte-identical
//     /metrics text and manifest JSON (no map-iteration order leaks, no
//     wall-clock reads inside the registry).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates instrument families.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind with the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Fixed bucket layouts. Histograms take an explicit layout at registration
// so every sweep exports the same buckets regardless of the data.
var (
	// DefBuckets is the Prometheus default latency layout, in seconds.
	DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// DurationBuckets spans the testbed's virtual-time phase and page-load
	// durations (tens of milliseconds to the 120 s trial bound), in seconds.
	DurationBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}
	// SizeBuckets spans object and burst sizes, in bytes.
	SizeBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576}
)

// labelSep joins label values into series-map keys; 0xFF cannot appear in
// valid UTF-8 label values' first byte position ambiguity-free enough for
// our controlled label sets.
const labelSep = "\xff"

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A nil *Registry is the disarmed registry: its constructors
// return nil instruments whose methods are no-ops.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed kind, help string, label schema
// and (for histograms) bucket layout.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64

	mu     sync.RWMutex
	series map[string]*series
}

// series is one (family, label-values) time series. Exactly one of the
// value groups is used, per the family kind.
type series struct {
	labelValues []string

	// counter
	count atomic.Int64
	// gauge (float64 bits)
	gaugeBits atomic.Uint64
	// histogram
	hBuckets []atomic.Uint64 // one per bound; +Inf is implicit
	hCount   atomic.Uint64
	hSumBits atomic.Uint64 // float64 bits, CAS-updated
}

// lookup returns the series for the given label values, creating it on
// first use. The hit path takes only the read lock.
func (f *family) lookup(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, labelSep)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		s.hBuckets = make([]atomic.Uint64, len(f.buckets))
	}
	f.series[key] = s
	return s
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally must not use ':', but the
// testbed never does).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the named family, creating it on first use. Registering
// the same name twice with a different kind or label schema panics — that
// is a programming error, caught at component construction.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with different labels", name))
			}
		}
		return f
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("obs: metric %s has unsorted buckets", name))
		}
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, KindCounter, labels, nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.register(name, help, KindGauge, labels, nil)}
}

// Histogram registers (or finds) an unlabeled histogram with the given
// fixed bucket layout (nil → DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{fam: r.register(name, help, KindHistogram, labels, buckets)}
}

// Counter is a monotonically increasing integer. The nil *Counter absorbs
// updates at the cost of one branch.
type Counter struct{ s *series }

// Add increments by n (n < 0 panics). No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic("obs: counter decremented")
	}
	c.s.count.Add(n)
}

// Inc increments by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.count.Load()
}

// CounterVec hands out per-label-value counters.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, creating the series
// on first use. Cache the result for hot loops. Nil-safe.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.fam.lookup(labelValues)}
}

// Gauge is an arbitrary float that can go up and down.
type Gauge struct{ s *series }

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.gaugeBits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop). No-op on nil.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.s.gaugeBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.s.gaugeBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.s.gaugeBits.Load())
}

// GaugeVec hands out per-label-value gauges.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values. Nil-safe.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.fam.lookup(labelValues)}
}

// Histogram accumulates observations into its family's fixed buckets.
type Histogram struct {
	bounds []float64
	s      *series
}

// Observe records one value. Lock-free: a binary search over the fixed
// bounds plus three atomic updates. The count is incremented before the
// bucket and snapshots read buckets before the count, so a concurrent
// scrape always sees cumulative buckets bounded by _count — the invariant
// LintExposition checks. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.s.hCount.Add(1)
	// First bound ≥ v; observations above every bound land only in +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.s.hBuckets[i].Add(1)
	}
	for {
		old := h.s.hSumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.hSumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the total observation count (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.s.hCount.Load()
}

// Sum reports the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.s.hSumBits.Load())
}

// HistogramVec hands out per-label-value histograms.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{bounds: v.fam.buckets, s: v.fam.lookup(labelValues)}
}

// Snapshot is a deterministic point-in-time copy of the registry, the
// shared input of both exporters and of the run manifest.
type Snapshot struct {
	Families []FamilySnap `json:"families"`
}

// FamilySnap is one family in a snapshot.
type FamilySnap struct {
	Name       string       `json:"name"`
	Help       string       `json:"help,omitempty"`
	Kind       string       `json:"kind"`
	LabelNames []string     `json:"label_names,omitempty"`
	Buckets    []float64    `json:"buckets,omitempty"`
	Series     []SeriesSnap `json:"series"`
}

// SeriesSnap is one series in a snapshot. Counters and gauges use Value;
// histograms use Count, Sum and BucketCounts (per-bucket, not cumulative —
// the text exporter accumulates).
type SeriesSnap struct {
	LabelValues  []string `json:"label_values,omitempty"`
	Value        float64  `json:"value"`
	Count        uint64   `json:"count,omitempty"`
	Sum          float64  `json:"sum,omitempty"`
	BucketCounts []uint64 `json:"bucket_counts,omitempty"`
}

// Snapshot copies every family sorted by name and every series sorted by label values. Nil-safe (empty
// snapshot). Concurrent updates during the copy may be torn across
// instruments (a histogram's _count can lead its buckets by in-flight
// observations — never trail them) but each atomic read is itself consistent; quiesced
// registries — the manifest path — snapshot exactly.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		fs := FamilySnap{
			Name:       f.name,
			Help:       f.help,
			Kind:       f.kind.String(),
			LabelNames: f.labels,
		}
		if f.kind == KindHistogram {
			fs.Buckets = f.buckets
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnap{LabelValues: s.labelValues}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.count.Load())
			case KindGauge:
				ss.Value = math.Float64frombits(s.gaugeBits.Load())
			case KindHistogram:
				// Buckets before count: pairs with Observe's ordering so a
				// concurrent scrape never shows buckets exceeding _count.
				ss.BucketCounts = make([]uint64, len(s.hBuckets))
				for i := range s.hBuckets {
					ss.BucketCounts[i] = s.hBuckets[i].Load()
				}
				ss.Sum = math.Float64frombits(s.hSumBits.Load())
				ss.Count = s.hCount.Load()
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
