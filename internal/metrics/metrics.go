// Package metrics implements the paper's measurement machinery: the
// degree-of-multiplexing metric (§II-A) computed from ground-truth
// transmission logs, plus the small summary statistics the experiment
// tables report.
//
// AnalyzeDoM computes every DoM view of a log in one pass: it groups the
// spans by instance, sorts the instance envelopes' endpoints once, and
// sweeps them for the byte ranges that two or more envelopes cover. A run
// of an instance's bytes lies inside its own envelope, so its isolated
// bytes are its length minus its overlap with those ranges. The cost is
// O(S log S) in the span count, where recomputing the union of the other
// envelopes per instance would be O(I² log I) in the instance count.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// TxSpan records where one DATA frame's payload landed in the ordered
// server→client application byte stream. The simulated server emits one
// TxSpan per DATA frame; offsets are cumulative bytes of h2 frame payload
// sent on the connection, so byte positions compare across streams.
type TxSpan struct {
	// Instance identifies one serving of one object ("quiz#0"; a
	// retransmitted copy of the same object is a distinct instance).
	Instance string
	// ObjectID is the catalog object this instance serves.
	ObjectID string
	// Offset is the stream position of the frame's first payload byte.
	Offset int64
	// Len is the payload length.
	Len int
	// At is the emission time (diagnostic; not used by the metric).
	At time.Duration
}

// interval is a half-open byte range [lo, hi).
type interval struct{ lo, hi int64 }

// DoMReport is the three degree-of-multiplexing views of one transmission
// log, all computed by one AnalyzeDoM pass.
type DoMReport struct {
	// PerInstance is DoM per instance (DegreeOfMultiplexing).
	PerInstance map[string]float64
	// BestPerObject is the minimum DoM over each object's instances: the
	// attacker succeeds if *any* serving of the object (including a
	// retransmitted copy, §IV-C) transmits serialized.
	BestPerObject map[string]float64
	// BestComplete is BestPerObject restricted to complete servings, whose
	// spans sum to the object's full size. A partially-transmitted copy —
	// the server stopped mid-object when the stream was reset — cannot
	// leak the size even when its fragment happens to be contiguous.
	BestComplete map[string]float64
}

// DegreeOfMultiplexing computes, per instance, how much of the object is
// interleaved with other objects in the stream (§II-A). The value is
//
//	1 − (largest isolated contiguous run of the instance's bytes) / size
//
// where a run breaks whenever another instance's bytes sit between two of
// this instance's frames, and a run only counts as isolated where no other
// instance's transmission envelope covers it. DoM = 0 therefore means the
// instance went out as one contiguous block with nothing else around it —
// exactly the condition under which the eavesdropper's delimiter+sum
// attack (Fig. 1) reads the size; any positive value breaks that
// bookkeeping.
func DegreeOfMultiplexing(spans []TxSpan) map[string]float64 {
	return AnalyzeDoM(spans, nil).PerInstance
}

// domInstance is one instance's share of a transmission log.
type domInstance struct {
	name       string
	obj        string // ObjectID of the instance's last span
	bytes      int    // Len summed over all its spans
	env        interval
	n          int // spans with Len > 0
	start, end int // its pieces are pieces[start:end]
}

// AnalyzeDoM computes all three DoM maps of spans in one pass; sizes
// (object id → size) decides which instances are complete, and nil counts
// every instance as complete.
//
// An instance's runs lie inside its own envelope, so a run byte is covered
// by *another* instance's envelope exactly where at least two envelopes
// cover it. One sweep over the sorted envelope endpoints yields those
// ≥2-covered ranges, and each run's isolated bytes are its length minus
// its overlap with them. Cost is O(S log S) in the span count. Every
// count is an exact integer, so each DoM is the same float any equivalent
// computation gives.
func AnalyzeDoM(spans []TxSpan, sizes map[string]int) DoMReport {
	// Group by instance in first-appearance order. Every span sets the
	// instance's object and byte count; only positive-length spans make
	// pieces and envelopes.
	index := make(map[string]int)
	var insts []domInstance
	for _, s := range spans {
		i, ok := index[s.Instance]
		if !ok {
			i = len(insts)
			index[s.Instance] = i
			insts = append(insts, domInstance{name: s.Instance, env: interval{lo: math.MaxInt64, hi: math.MinInt64}})
		}
		in := &insts[i]
		in.obj = s.ObjectID
		in.bytes += s.Len
		if s.Len <= 0 {
			continue
		}
		in.n++
		in.env.lo = min(in.env.lo, s.Offset)
		in.env.hi = max(in.env.hi, s.Offset+int64(s.Len))
	}
	// Counting-sort the pieces into per-instance blocks, keeping emission
	// order within each block, and collect the envelope endpoints.
	total := 0
	var los, his []int64
	for i := range insts {
		insts[i].start, insts[i].end = total, total
		total += insts[i].n
		if insts[i].n > 0 {
			los = append(los, insts[i].env.lo)
			his = append(his, insts[i].env.hi)
		}
	}
	pieces := make([]interval, total)
	for _, s := range spans {
		if s.Len <= 0 {
			continue
		}
		in := &insts[index[s.Instance]]
		pieces[in.end] = interval{lo: s.Offset, hi: s.Offset + int64(s.Len)}
		in.end++
	}
	multi := multiCovered(los, his)

	rep := DoMReport{
		PerInstance:   make(map[string]float64, len(los)),
		BestPerObject: make(map[string]float64),
		BestComplete:  make(map[string]float64),
	}
	for _, in := range insts {
		if in.n == 0 {
			continue
		}
		d := isolatedDoM(pieces[in.start:in.end], multi)
		rep.PerInstance[in.name] = d
		keepMin(rep.BestPerObject, in.obj, d)
		if sizes == nil || in.bytes == sizes[in.obj] {
			keepMin(rep.BestComplete, in.obj, d)
		}
	}
	return rep
}

func keepMin(m map[string]float64, k string, v float64) {
	if cur, ok := m[k]; !ok || v < cur {
		m[k] = v
	}
}

// multiCovered returns, in order, the disjoint byte ranges that at least
// two of the envelopes [los[k], his[k]) cover. It sorts los and his.
func multiCovered(los, his []int64) []interval {
	slices.Sort(los)
	slices.Sort(his)
	var out []interval
	depth, i, j := 0, 0, 0
	var open int64
	for j < len(his) {
		pos := his[j]
		if i < len(los) && los[i] < pos {
			pos = los[i]
		}
		before := depth
		for ; i < len(los) && los[i] == pos; i++ {
			depth++
		}
		for ; j < len(his) && his[j] == pos; j++ {
			depth--
		}
		switch {
		case before < 2 && depth >= 2:
			open = pos
		case before >= 2 && depth < 2:
			out = append(out, interval{lo: open, hi: pos})
		}
	}
	return out
}

// isolatedDoM is one instance's DoM from its pieces (in emission order)
// and the ≥2-covered ranges. Pieces are sorted by offset and merged into
// offset-contiguous runs; the run with the most bytes outside multi sets
// the value.
func isolatedDoM(pieces []interval, multi []interval) float64 {
	slices.SortFunc(pieces, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var total, best int64
	run := interval{lo: pieces[0].lo, hi: pieces[0].lo}
	flush := func() {
		best = max(best, (run.hi-run.lo)-overlap(run, multi))
	}
	for _, p := range pieces {
		total += p.hi - p.lo
		if p.lo != run.hi {
			flush()
			run = interval{lo: p.lo, hi: p.lo}
		}
		run.hi = p.hi
	}
	flush()
	return 1 - float64(best)/float64(total)
}

// overlap returns how many bytes of iv fall inside merged, a sorted list
// of disjoint intervals.
func overlap(iv interval, merged []interval) int64 {
	k, _ := slices.BinarySearchFunc(merged, iv.lo, func(m interval, lo int64) int {
		return cmp.Compare(m.hi, lo+1)
	})
	var n int64
	for ; k < len(merged) && merged[k].lo < iv.hi; k++ {
		n += max(0, min(iv.hi, merged[k].hi)-max(iv.lo, merged[k].lo))
	}
	return n
}

// Sample accumulates scalar observations across trials.
type Sample struct {
	values []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// Mean reports the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Counter tallies boolean outcomes across trials.
type Counter struct {
	Hits, Total int
}

// Observe records one outcome.
func (c *Counter) Observe(hit bool) {
	c.Total++
	if hit {
		c.Hits++
	}
}

// Percent reports hits as a percentage of total (0 when empty).
func (c *Counter) Percent() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Hits) / float64(c.Total)
}

// String renders "hits/total (pct%)".
func (c *Counter) String() string {
	return fmt.Sprintf("%d/%d (%.0f%%)", c.Hits, c.Total, c.Percent())
}
