package flowseq

import (
	"sort"
	"sync"

	"h2privacy/internal/obs"
)

// Collector aggregates finalized flows across a sweep, keyed by (flat
// trial index, flow ID) — fleet trials finalize one row set per member
// flow. It is safe for concurrent add (worker-pool trials finalize
// in completion order) and concurrent read (/debug/flows scrapes
// mid-sweep); every export sorts by trial index then flow ID, so output
// is byte-identical at any worker count.
//
// Metrics split, mirroring the sweep engine's determinism contract: the
// per-flow counts PublishTo resolves (records, GETs, controls, stream
// opens, resets, spans) are added once per finalized flow, as it reaches
// the collector — integer totals that do not depend on the order flows
// arrive in, so a scrape shows the sweep advance flow by flow — while the
// order-sensitive families (histograms, labeled totals) publish deferred
// and in trial-index order through PublishFeatures. A trial attempt that
// never finalizes adds nothing.
type Collector struct {
	mu     sync.Mutex
	trials map[flowKey]*FlowFeatures

	// Per-flow count instruments, resolved by PublishTo; nil no-ops
	// otherwise.
	cRecC2S  *obs.Counter
	cRecS2C  *obs.Counter
	cGET     *obs.Counter
	cControl *obs.Counter
	cOpened  *obs.Counter
	cResets  *obs.Counter
	cSpans   *obs.Counter
}

// flowKey identifies one flow of one trial; retried trials overwrite
// their failed attempt's rows key by key.
type flowKey struct {
	trial int
	flow  string
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{trials: make(map[flowKey]*FlowFeatures)}
}

// PublishTo resolves the per-flow flow_* counters against reg and pre-creates
// every deferred family and series PublishFeatures will touch, so a
// mid-sweep scrape's family shape does not depend on which trials
// happened to finish first (the perf collector's pattern). Nil collector
// or registry is a no-op.
func (c *Collector) PublishTo(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	recs := reg.CounterVec("flow_records_observed_total",
		"TLS records observed at the gateway and fed to flowseq, by direction.", "dir")
	c.cRecC2S = recs.With("c2s")
	c.cRecS2C = recs.With("s2c")
	c.cGET = reg.Counter("flow_get_records_total",
		"GET-classified client→server records fed to flowseq.")
	c.cControl = reg.Counter("flow_control_records_total",
		"Small client→server control records (WINDOW_UPDATE, RST_STREAM) fed to flowseq.")
	c.cOpened = reg.Counter("flow_streams_opened_total",
		"HTTP/2 streams whose timeline flowseq started tracking.")
	c.cResets = reg.Counter("flow_stream_resets_total",
		"Tracked streams terminated by RST_STREAM.")
	c.cSpans = reg.Counter("flow_clean_slate_spans_total",
		"Clean-slate signature spans opened (control volley after server silence).")

	f := deferredFamilies(reg)
	f.streams.With("serialized")
	f.streams.With("multiplexed")
	for _, state := range []string{"complete", "reset", "open"} {
		f.ends.With(state)
	}
	for _, dir := range []string{"c2s", "s2c"} {
		f.bursts.With(dir)
		f.burstWire.With(dir)
	}
}

// flowFamilies bundles the deferred (order-sensitive) flow_* families so
// PublishTo's pre-creation and PublishFeatures' updates cannot drift in
// name, help or bucket layout.
type flowFamilies struct {
	streams   *obs.CounterVec
	ends      *obs.CounterVec
	bursts    *obs.CounterVec
	burstWire *obs.HistogramVec
	gaps      *obs.Histogram
	firstByte *obs.Histogram
	spans     *obs.Histogram
}

func deferredFamilies(reg *obs.Registry) flowFamilies {
	return flowFamilies{
		streams: reg.CounterVec("flow_streams_total",
			"Finalized stream timelines by transmission label (serialized = no interleaving, the attack's success signature).", "label"),
		ends: reg.CounterVec("flow_stream_end_total",
			"Finalized stream timelines by terminal state.", "state"),
		bursts: reg.CounterVec("flow_bursts_total",
			"Wire-side record bursts segmented per flow, by direction.", "dir"),
		burstWire: reg.HistogramVec("flow_burst_wire_bytes",
			"On-stream byte size of each wire-side burst, by direction.", obs.SizeBuckets, "dir"),
		gaps: reg.Histogram("flow_interburst_gap_seconds",
			"Silence between consecutive same-direction wire bursts.", obs.DurationBuckets),
		firstByte: reg.Histogram("flow_stream_first_byte_seconds",
			"Virtual time from a stream's request to its first DATA byte.", obs.DurationBuckets),
		spans: reg.Histogram("flow_clean_slate_span_seconds",
			"Duration of each clean-slate signature span.", obs.DurationBuckets),
	}
}

// PublishFeatures records one finalized flow's order-sensitive flow_*
// families into reg. Callers must invoke it in trial-index order for
// byte-identical registry snapshots across worker counts —
// core.PublishTrialMetrics does, via the sweep engine's deferred drain.
// Nil registry or features is a no-op.
func PublishFeatures(reg *obs.Registry, ff *FlowFeatures) {
	if reg == nil || ff == nil {
		return
	}
	f := deferredFamilies(reg)
	for i := range ff.Streams {
		s := &ff.Streams[i]
		if s.Label != "" {
			f.streams.With(s.Label).Inc()
		}
		f.ends.With(s.End).Inc()
		if s.RequestNS >= 0 && s.FirstByteNS >= s.RequestNS {
			f.firstByte.Observe(float64(s.FirstByteNS-s.RequestNS) / 1e9)
		}
	}
	for i := range ff.Bursts {
		b := &ff.Bursts[i]
		f.bursts.With(b.Dir).Inc()
		f.burstWire.With(b.Dir).Observe(float64(b.Wire))
		if b.GapNS >= 0 {
			f.gaps.Observe(float64(b.GapNS) / 1e9)
		}
	}
	for i := range ff.Spans {
		sp := &ff.Spans[i]
		f.spans.Observe(float64(sp.EndNS-sp.StartNS) / 1e9)
	}
}

// add registers a finalized flow and adds its counts to the per-flow
// counters. The last Finalize for a (trial, flow) key wins the rows; the
// counts of a flow it replaces were added when that flow arrived and are
// not added again. Finalize is idempotent, so each flow arrives once.
func (c *Collector) add(ff *FlowFeatures) {
	if c == nil || ff == nil {
		return
	}
	c.mu.Lock()
	c.trials[flowKey{ff.Trial, ff.Flow}] = ff
	c.mu.Unlock()
	c.cRecC2S.Add(int64(ff.records[0]))
	c.cRecS2C.Add(int64(ff.records[1]))
	c.cGET.Add(int64(ff.GETs))
	c.cControl.Add(int64(ff.Control))
	c.cOpened.Add(int64(len(ff.Streams)))
	c.cSpans.Add(int64(len(ff.Spans)))
	resets := 0
	for i := range ff.Streams {
		if ff.Streams[i].End == "reset" {
			resets++
		}
	}
	c.cResets.Add(int64(resets))
}

// sorted snapshots the collected flows in (trial index, flow ID) order.
func (c *Collector) sorted() []*FlowFeatures {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*FlowFeatures, 0, len(c.trials))
	for _, ff := range c.trials {
		out = append(out, ff)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Trial != out[j].Trial {
			return out[i].Trial < out[j].Trial
		}
		return out[i].Flow < out[j].Flow
	})
	return out
}

// Receipt summarizes the collection for the run manifest and the
// /debug/vars features expvar: schema version, row counts per table, and
// the export path when one was configured. Row counts advance live as
// trials finalize.
type Receipt struct {
	Schema     int    `json:"schema"`
	Trials     int    `json:"trials"`
	StreamRows int    `json:"stream_rows"`
	BurstRows  int    `json:"burst_rows"`
	SpanRows   int    `json:"span_rows"`
	Path       string `json:"path,omitempty"`
}

// Receipt builds the current receipt. Trials counts distinct trial
// indices (a fleet trial contributes many flows but is still one trial).
// Nil collector returns a zero receipt (schema still stamped, so
// consumers can tell "absent" from "empty" by Trials).
func (c *Collector) Receipt(path string) Receipt {
	r := Receipt{Schema: SchemaVersion, Path: path}
	lastTrial := -1
	for _, ff := range c.sorted() {
		if ff.Trial != lastTrial {
			r.Trials++
			lastTrial = ff.Trial
		}
		r.StreamRows += len(ff.Streams)
		r.BurstRows += len(ff.Bursts)
		r.SpanRows += len(ff.Spans)
	}
	return r
}
