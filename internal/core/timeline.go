package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"h2privacy/internal/endpoint"
	"h2privacy/internal/trace"
)

// TimelineEvent is one entry of a trial's merged event log.
type TimelineEvent struct {
	At    time.Duration
	Actor string // "adversary", "browser", "tcp", "monitor"
	What  string
}

// Timeline builds one chronological narrative of the trial — the view an
// analyst wants when replaying a single attack run. When the trial ran with
// tracing armed it is derived from the trace stream, which adds the TCP
// events (RTO fires, fast-recovery entry/exit, connection death) the legacy
// component logs never carried; otherwise it falls back to merging the
// attack driver's phase log and the browser's request log. The predictor's
// burst verdicts come from the result in both modes.
func (tb *Testbed) Timeline(res *TrialResult) []TimelineEvent {
	var evs []TimelineEvent
	add := func(at time.Duration, actor, what string) {
		evs = append(evs, TimelineEvent{At: at, Actor: actor, What: what})
	}
	brokenLogged := false
	if tb.cfg.Trace.Enabled() {
		for _, ev := range tb.cfg.Trace.Events() {
			if what, actor, ok := timelineEntry(ev); ok {
				add(ev.At, actor, what)
				if actor == "browser" && ev.Kind == "broken" {
					brokenLogged = true
				}
			}
		}
	} else {
		if tb.Driver != nil {
			for _, pc := range tb.Driver.PhaseLog {
				add(pc.Time, "adversary", "phase → "+pc.Phase.String())
			}
		}
		for _, req := range tb.Browser.Result().Requests {
			switch req.Kind {
			case endpoint.RequestInitial:
				add(req.Time, "browser", "GET "+req.ObjectID)
			case endpoint.RequestRetry:
				add(req.Time, "browser", "retry GET "+req.ObjectID+" (response stalled)")
			case endpoint.RequestReRequest:
				add(req.Time, "browser", "re-request "+req.ObjectID+" (after reset)")
			case endpoint.RequestPushed:
				add(req.Time, "browser", "adopted pushed "+req.ObjectID)
			}
		}
	}
	for _, b := range res.Bursts {
		if b.MatchID == "" {
			continue
		}
		add(b.End, "monitor", fmt.Sprintf("burst %d B → identified %s (±%d B)", b.EstSize, b.MatchID, b.MatchErr))
	}
	if res.Broken && !brokenLogged {
		// The browser result has no timestamp for breakage; anchor it at
		// the last observed event.
		var last time.Duration
		for _, e := range evs {
			if e.At > last {
				last = e.At
			}
		}
		add(last, "browser", "page load broken: "+res.BrokenReason)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// timelineEntry translates one trace event into a timeline line. Most of
// the stream (per-packet, per-frame, cwnd samples) is too fine-grained for
// a narrative and is skipped.
func timelineEntry(ev trace.Event) (what, actor string, ok bool) {
	attr := func(key string) (trace.Attr, bool) {
		for i := 0; i < ev.NAttr; i++ {
			if ev.Attrs[i].Key == key {
				return ev.Attrs[i], true
			}
		}
		return trace.Attr{}, false
	}
	str := func(key string) string { a, _ := attr(key); return a.Str }
	num := func(key string) int64 { a, _ := attr(key); return a.Num }
	dur := func(key string) time.Duration { a, _ := attr(key); return time.Duration(a.Num) }
	switch ev.Layer {
	case trace.LayerAdversary:
		switch ev.Kind {
		case "phase":
			return "phase → " + str("to"), "adversary", true
		case "throttle":
			return fmt.Sprintf("throttle to %.0f Mbps", float64(num("bps"))/1e6), "adversary", true
		case "drop-window":
			return fmt.Sprintf("drop window: %d%% (rtx %d%%) for %s",
				num("rate_pct"), num("rtx_rate_pct"), dur("duration")), "adversary", true
		}
	case trace.LayerBrowser:
		switch ev.Kind {
		case "request":
			obj := str("object")
			switch str("kind") {
			case "retry":
				return "retry GET " + obj + " (response stalled)", "browser", true
			case "re-request":
				return "re-request " + obj + " (after reset)", "browser", true
			case "pushed":
				return "adopted pushed " + obj, "browser", true
			default:
				return "GET " + obj, "browser", true
			}
		case "reset-cycle":
			return fmt.Sprintf("reset cycle %d (%d streams open)", num("cycle"), num("open")), "browser", true
		case "broken":
			return "page load broken: " + str("reason"), "browser", true
		}
	case trace.LayerTCP:
		switch ev.Kind {
		case "rto":
			return fmt.Sprintf("%s RTO fired (retry %d, rto %s, %d B in flight)",
				str("conn"), num("retries"), dur("rto"), num("flight")), "tcp", true
		case "recovery-enter":
			return fmt.Sprintf("%s enters fast recovery (cwnd %d, ssthresh %d)",
				str("conn"), num("cwnd"), num("ssthresh")), "tcp", true
		case "recovery-exit":
			return fmt.Sprintf("%s exits fast recovery (cwnd %d)", str("conn"), num("cwnd")), "tcp", true
		case "broken":
			return str("conn") + " connection failed: " + str("err"), "tcp", true
		}
	}
	return "", "", false
}

// RenderTimeline writes the merged event log as aligned text.
func RenderTimeline(w io.Writer, evs []TimelineEvent) {
	for _, e := range evs {
		fmt.Fprintf(w, "%12s  %-9s  %s\n", e.At.Round(time.Millisecond), e.Actor, e.What)
	}
	if len(evs) == 0 {
		fmt.Fprintln(w, "(no events)")
	}
}
