package metrics

import (
	"fmt"
	"math"
	"sort"
)

// The O(I² log I) degree-of-multiplexing implementation AnalyzeDoM
// replaced, kept verbatim as the reference its outputs must match bit for
// bit. For each instance it rebuilds and sorts every other instance's
// envelope.

func refDegreeOfMultiplexing(spans []TxSpan) map[string]float64 {
	byInstance := make(map[string][]TxSpan)
	for _, s := range spans {
		if s.Len <= 0 {
			continue
		}
		byInstance[s.Instance] = append(byInstance[s.Instance], s)
	}
	// Envelope [min, max) per instance.
	envelopes := make(map[string]interval, len(byInstance))
	for inst, ss := range byInstance {
		env := interval{lo: math.MaxInt64, hi: math.MinInt64}
		for _, s := range ss {
			if s.Offset < env.lo {
				env.lo = s.Offset
			}
			if end := s.Offset + int64(s.Len); end > env.hi {
				env.hi = end
			}
		}
		envelopes[inst] = env
	}
	out := make(map[string]float64, len(byInstance))
	for inst, ss := range byInstance {
		others := make([]interval, 0, len(envelopes)-1)
		for other, env := range envelopes {
			if other != inst {
				others = append(others, env)
			}
		}
		merged := refMergeIntervals(others)
		// Spans arrive in emission order = offset order; merge
		// offset-contiguous spans into runs.
		sort.Slice(ss, func(i, j int) bool { return ss[i].Offset < ss[j].Offset })
		var total, bestIsolated int64
		run := interval{lo: ss[0].Offset, hi: ss[0].Offset}
		flush := func() {
			iso := (run.hi - run.lo) - refOverlap(run, merged)
			if iso > bestIsolated {
				bestIsolated = iso
			}
		}
		for _, s := range ss {
			total += int64(s.Len)
			if s.Offset != run.hi {
				flush()
				run = interval{lo: s.Offset, hi: s.Offset}
			}
			run.hi = s.Offset + int64(s.Len)
		}
		flush()
		if total == 0 {
			out[inst] = 0
			continue
		}
		out[inst] = 1 - float64(bestIsolated)/float64(total)
	}
	return out
}

func refBestDoM(spans []TxSpan, sizes map[string]int) map[string]float64 {
	dom := refDegreeOfMultiplexing(spans)
	instObj := make(map[string]string)
	instBytes := make(map[string]int)
	for _, s := range spans {
		instObj[s.Instance] = s.ObjectID
		instBytes[s.Instance] += s.Len
	}
	best := make(map[string]float64)
	for inst, d := range dom {
		obj := instObj[inst]
		if sizes != nil && instBytes[inst] != sizes[obj] {
			continue
		}
		if cur, ok := best[obj]; !ok || d < cur {
			best[obj] = d
		}
	}
	return best
}

func refMergeIntervals(in []interval) []interval {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].lo < in[j].lo })
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// refOverlap returns how many bytes of iv fall inside the merged set.
func refOverlap(iv interval, merged []interval) int64 {
	var n int64
	for _, m := range merged {
		lo, hi := iv.lo, iv.hi
		if m.lo > lo {
			lo = m.lo
		}
		if m.hi < hi {
			hi = m.hi
		}
		if hi > lo {
			n += hi - lo
		}
	}
	return n
}

// RefAnalyzeDoM is AnalyzeDoM computed by the reference implementation.
// Each map gets its own copy of spans, because the reference sorts in
// place and its tie order depends on the order it is handed.
func RefAnalyzeDoM(spans []TxSpan, sizes map[string]int) DoMReport {
	cp := func() []TxSpan { return append([]TxSpan(nil), spans...) }
	complete := refBestDoM(cp(), sizes)
	return DoMReport{
		PerInstance:   refDegreeOfMultiplexing(cp()),
		BestPerObject: refBestDoM(cp(), nil),
		BestComplete:  complete,
	}
}

// DiffDoM describes the first difference between two reports, compared
// with math.Float64bits, or returns "" when they are identical.
func DiffDoM(got, want DoMReport) string {
	for _, m := range []struct {
		name      string
		got, want map[string]float64
	}{
		{"PerInstance", got.PerInstance, want.PerInstance},
		{"BestPerObject", got.BestPerObject, want.BestPerObject},
		{"BestComplete", got.BestComplete, want.BestComplete},
	} {
		if len(m.got) != len(m.want) {
			return fmt.Sprintf("%s: %d keys, want %d (%v vs %v)", m.name, len(m.got), len(m.want), m.got, m.want)
		}
		for k, w := range m.want {
			g, ok := m.got[k]
			if !ok || math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("%s[%q] = %v (present %t), want %v", m.name, k, g, ok, w)
			}
		}
	}
	return ""
}
