package flowseq

import (
	"sort"
	"time"
)

// FlowFeatures is one finalized flow's feature set: the wire-side burst
// table, the clean-slate spans, and the per-stream timelines. All times
// are virtual-clock nanoseconds (-1 where an event never happened), so
// same-seed trials serialize byte-identically.
type FlowFeatures struct {
	Trial   int             `json:"trial"`
	Flow    string          `json:"flow,omitempty"`
	GETs    int             `json:"gets"`
	Control int             `json:"control_records"`
	Tainted int             `json:"tainted_records"`
	Streams []StreamFeature `json:"streams"`
	Bursts  []Burst         `json:"bursts"`
	Spans   []Span          `json:"spans"`

	// records counts every record fed to the analyzer, by direction
	// (0 = c2s). It feeds the collector's flow_records_observed_total and
	// is not part of the feature export.
	records [2]int
}

// StreamFeature is one HTTP/2 stream's extracted timeline and size/gap
// features — one CSV row of the classifier feed.
type StreamFeature struct {
	Trial  int    `json:"trial"`
	Flow   string `json:"flow,omitempty"`
	Stream uint32 `json:"stream"`
	Object string `json:"object,omitempty"`
	// Kind is the browser's request kind (initial/retry/re-request/pushed);
	// empty when only the wire view labeled the stream.
	Kind string `json:"kind,omitempty"`
	// Label classifies how the response transmitted: "serialized" (no
	// other stream's DATA interleaved into its span — the attack's success
	// signature) or "multiplexed"; empty when no data arrived.
	Label string `json:"label,omitempty"`
	// End is the terminal state: "complete", "reset", or "open" (the trial
	// ended first).
	End string `json:"end"`
	// Delivered marks the stream that completed its object at the browser.
	Delivered bool `json:"delivered,omitempty"`

	RequestNS   int64 `json:"request_ns"`
	HeadersNS   int64 `json:"headers_ns"`
	FirstByteNS int64 `json:"first_byte_ns"`
	LastByteNS  int64 `json:"last_byte_ns"`
	EndNS       int64 `json:"end_ns"`

	Bytes       int `json:"bytes"`
	DataFrames  int `json:"data_frames"`
	Interleaved int `json:"interleaved_frames"`

	// Bursts segments the stream's own DATA arrivals by BurstGap;
	// BurstBytes carries each burst's payload total. Gap figures cover the
	// Bursts-1 inter-burst gaps.
	Bursts     int   `json:"bursts"`
	BurstBytes []int `json:"burst_bytes,omitempty"`
	MaxGapNS   int64 `json:"max_gap_ns"`
	GapSumNS   int64 `json:"gap_sum_ns"`
}

// Burst is one wire-side burst: consecutive untainted application records
// in one direction with no intra-gap exceeding BurstGap.
type Burst struct {
	Trial int    `json:"trial"`
	Flow  string `json:"flow,omitempty"`
	Dir   string `json:"dir"`
	Index int    `json:"index"`

	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// GapNS is the silence since the previous same-direction burst ended
	// (-1 for the direction's first burst).
	GapNS   int64 `json:"gap_ns"`
	Records int   `json:"records"`
	// Wire sums record on-stream sizes; Body estimates object payload
	// (plaintext minus frame-header overhead, first record excluded as
	// response HEADERS — the predictor's size model).
	Wire int `json:"wire_bytes"`
	Body int `json:"body_bytes"`
}

// Span is one clean-slate signature span: a volley of client→server
// control records opened after server silence (the browser resetting its
// streams) until the server talks again.
type Span struct {
	Trial   int    `json:"trial"`
	Flow    string `json:"flow,omitempty"`
	Index   int    `json:"index"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Resets  int    `json:"resets"`
}

// Finalize closes open bursts, spans and stream timelines, assembles the
// flow's feature set in deterministic order (streams by ID, bursts c2s
// then s2c in onset order, spans in onset order), flushes it into the
// Collector, and returns it. Idempotent; nil analyzer returns nil.
func (a *Analyzer) Finalize() *FlowFeatures {
	if a == nil {
		return nil
	}
	a.lock()
	defer a.unlock()
	if a.done {
		return a.out
	}
	a.done = true

	for c2s := 0; c2s < 2; c2s++ {
		d := &a.wire[c2s]
		if d.open {
			d.close(dirName(c2s == 0))
		}
	}
	if a.spanOpen {
		// The trial ended mid-span (a broken load never got data back);
		// close at the last observed event so the volley still exports.
		a.closeSpan(a.lastEvent)
	}

	ff := &FlowFeatures{
		Trial:   a.trial,
		Flow:    a.flow,
		GETs:    a.gets,
		Control: a.controls,
		Tainted: a.tainted,
		records: a.records,
	}
	ids := make([]uint32, 0, len(a.streams))
	for id := range a.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ff.Streams = append(ff.Streams, a.streams[id].feature(a.trial, a.flow))
	}
	for c2s := 0; c2s < 2; c2s++ {
		for _, b := range a.wire[c2s].bursts {
			b.Trial, b.Flow = a.trial, a.flow
			ff.Bursts = append(ff.Bursts, b)
		}
	}
	for _, sp := range a.spans {
		sp.Trial, sp.Flow = a.trial, a.flow
		ff.Spans = append(ff.Spans, sp)
	}
	a.out = ff
	a.col.add(ff)
	return ff
}

func (s *streamState) feature(trial int, flow string) StreamFeature {
	if s.burstOpen {
		s.burstBytes = append(s.burstBytes, s.burstAccum)
		s.burstOpen = false
	}
	f := StreamFeature{
		Trial:       trial,
		Flow:        flow,
		Stream:      s.id,
		Object:      s.object,
		Kind:        s.kind,
		End:         s.end,
		Delivered:   s.objDone,
		RequestNS:   stampNS(s.hasRequest, s.requestAt),
		HeadersNS:   stampNS(s.hasHeaders, s.headersAt),
		FirstByteNS: stampNS(s.hasFirst, s.firstAt),
		LastByteNS:  stampNS(s.hasFirst, s.lastAt),
		EndNS:       stampNS(s.end != "", s.endAt),
		Bytes:       s.bytes,
		DataFrames:  s.frames,
		Interleaved: s.interleaved,
		Bursts:      len(s.burstBytes),
		BurstBytes:  s.burstBytes,
		MaxGapNS:    int64(s.gapMax),
		GapSumNS:    int64(s.gapSum),
	}
	if f.End == "" {
		f.End = "open"
	}
	if s.frames > 0 {
		if s.interleaved == 0 {
			f.Label = "serialized"
		} else {
			f.Label = "multiplexed"
		}
	}
	return f
}

func stampNS(has bool, t time.Duration) int64 {
	if !has {
		return -1
	}
	return int64(t)
}
