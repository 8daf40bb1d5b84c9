package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Export formats accepted by WriteFormat (and the cmd tools' -trace-format
// flag).
const (
	FormatChrome  = "chrome"  // Chrome trace_event JSON (chrome://tracing, Perfetto)
	FormatJSONL   = "jsonl"   // one JSON object per event
	FormatSummary = "summary" // compact text table: event counts per layer and kind
)

// Formats lists the accepted export format names.
func Formats() []string { return []string{FormatChrome, FormatJSONL, FormatSummary} }

// WriteFormat serializes the trace in the named format.
func (t *Tracer) WriteFormat(w io.Writer, format string) error {
	switch format {
	case FormatChrome, "":
		return t.WriteChromeTrace(w)
	case FormatJSONL:
		return t.WriteJSONL(w)
	case FormatSummary:
		return t.WriteSummary(w)
	default:
		return fmt.Errorf("trace: unknown format %q (want chrome, jsonl or summary)", format)
	}
}

// WriteJSONL writes one JSON object per event:
//
//	{"ts":1234567,"seq":0,"layer":"tcpsim","kind":"rto","attrs":{"conn":"client","retries":2}}
//
// ts is virtual nanoseconds. Output is byte-identical across runs with the
// same seed: events are already totally ordered and attributes keep their
// emission order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range t.Events() {
		bw.WriteString(`{"ts":`)
		bw.WriteString(strconv.FormatInt(int64(ev.At), 10))
		bw.WriteString(`,"seq":`)
		bw.WriteString(strconv.FormatUint(ev.Seq, 10))
		bw.WriteString(`,"layer":`)
		writeJSONString(bw, ev.Layer.String())
		bw.WriteString(`,"kind":`)
		writeJSONString(bw, ev.Kind)
		writeAttrs(bw, ev)
		bw.WriteString("}\n")
	}
	return bw.Flush()
}

// WriteChromeTrace writes the Chrome trace_event JSON object format: one
// process, one thread lane per layer, every event an instant ("i") with
// its attributes under args. Load the file in chrome://tracing or
// https://ui.perfetto.dev. Timestamps are virtual microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"h2privacy trial"}}`)
	for l := Layer(0); l < numLayers; l++ {
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}", int(l)+1, l)
		// tid sort order follows the layer stack: network at the bottom.
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"sort_index\":%d}}", int(l)+1, int(l))
	}
	events, dropped := t.snapshot()
	for _, ev := range events {
		bw.WriteString(",\n{\"name\":")
		writeJSONString(bw, ev.Kind)
		bw.WriteString(",\"cat\":")
		writeJSONString(bw, ev.Layer.String())
		// ts is microseconds; keep sub-µs precision as a decimal fraction
		// via integer math so output stays deterministic.
		ns := int64(ev.At)
		fmt.Fprintf(bw, ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%d.%03d", int(ev.Layer)+1, ns/1000, ns%1000)
		bw.WriteString(",\"args\":{")
		writeAttrList(bw, ev, `"seq":`+strconv.FormatUint(ev.Seq, 10))
		bw.WriteString("}}")
	}
	fmt.Fprintf(bw, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":%d", dropped)
	metas := t.Metas()
	for i := 0; i+1 < len(metas); i += 2 {
		bw.WriteByte(',')
		writeJSONString(bw, metas[i])
		bw.WriteByte(':')
		writeJSONString(bw, metas[i+1])
	}
	bw.WriteString("}}\n")
	return bw.Flush()
}

// WriteSummary writes a compact text digest: the retained and dropped
// totals, then the event count per (layer, kind).
func (t *Tracer) WriteSummary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	events, dropped := t.snapshot()
	fmt.Fprintf(bw, "trace: %d events retained, %d dropped (ring capacity)\n", len(events), dropped)

	type lk struct {
		layer Layer
		kind  string
	}
	counts := make(map[lk]int)
	for _, ev := range events {
		counts[lk{ev.Layer, ev.Kind}]++
	}
	keys := make([]lk, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].kind < keys[j].kind
	})
	if len(keys) > 0 {
		fmt.Fprintf(bw, "\nevents by layer/kind:\n")
		for _, k := range keys {
			fmt.Fprintf(bw, "  %-10s %-22s %8d\n", k.layer, k.kind, counts[k])
		}
	}
	return bw.Flush()
}

// writeAttrs writes `,"attrs":{...}` when the event has attributes.
func writeAttrs(bw *bufio.Writer, ev Event) {
	if ev.NAttr == 0 {
		return
	}
	bw.WriteString(`,"attrs":{`)
	writeAttrList(bw, ev, "")
	bw.WriteByte('}')
}

// writeAttrList writes the event's attributes as JSON object members,
// preceded by the literal prefix member when non-empty.
func writeAttrList(bw *bufio.Writer, ev Event, prefix string) {
	first := true
	if prefix != "" {
		bw.WriteString(prefix)
		first = false
	}
	for i := 0; i < ev.NAttr; i++ {
		a := ev.Attrs[i]
		if !first {
			bw.WriteByte(',')
		}
		first = false
		writeJSONString(bw, a.Key)
		bw.WriteByte(':')
		if a.IsNum() {
			bw.WriteString(strconv.FormatInt(a.Num, 10))
		} else {
			writeJSONString(bw, a.Str)
		}
	}
}

// writeJSONString writes s as a JSON string literal, escaping the minimum
// RFC 8259 set. Attribute values are short identifiers and error strings;
// non-ASCII passes through as UTF-8.
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			bw.WriteString(`\"`)
		case c == '\\':
			bw.WriteString(`\\`)
		case c == '\n':
			bw.WriteString(`\n`)
		case c == '\r':
			bw.WriteString(`\r`)
		case c == '\t':
			bw.WriteString(`\t`)
		case c < 0x20:
			fmt.Fprintf(bw, `\u%04x`, c)
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}
