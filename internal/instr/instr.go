// Package instr carries a trial's instrument handles as one value. Every
// layer constructor that can be observed — netsim paths and links, the
// fault injector and bottleneck, tcpsim connections, h2 connections, the
// endpoint server and browser, the capture monitor and the adversary —
// takes a Bundle once and keeps the members it uses.
package instr

import (
	"h2privacy/internal/check"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/trace"
)

// Bundle is the set of instruments armed on one flow. Every member is
// optional: a nil member is the disabled instrument, whose hooks are
// nil-receiver no-ops that cost nothing, so the zero Bundle runs a layer
// uninstrumented.
type Bundle struct {
	// Trace receives per-layer events.
	Trace *trace.Tracer
	// Check arms the runtime invariant checkers: link packet conservation,
	// TCP sequence space, HTTP/2 stream and flow-control legality, HPACK
	// table sync and monitor reassembly.
	Check *check.Checker
	// Flows is the flowseq event-sequence analyzer: the monitor feeds it
	// wire records, an h2 connection its frames and the browser its
	// request annotations. Arm it on one h2 endpoint per flow; wiring both
	// would count every frame twice.
	Flows *flowseq.Analyzer
}
