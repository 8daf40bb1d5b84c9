// Package capture implements the adversary's traffic monitor (the tshark
// component of the paper's §V setup): a passive tap on the compromised
// gateway that reassembles each direction's TCP byte stream, parses TLS
// record headers (type and length — never payload), classifies
// client→server application records as GET requests by size (the paper's
// `ssl.record.content_type==23` filter), and logs per-packet metadata
// including retransmissions. Everything here uses only information a real
// on-path device has.
package capture

import (
	"cmp"
	"slices"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
	"h2privacy/internal/trace"
)

// GET classification gate: client→server application records whose
// on-stream size falls in this range are counted as GETs. HPACK-compressed
// request HEADERS records land in it; the client's WINDOW_UPDATE (42-byte
// record), SETTINGS ACK and RST_STREAM records fall below it.
const (
	getMinRecordLen = 50
	getMaxRecordLen = 260
)

// setupRecordSkip is how many leading client→server application-data
// records are connection setup rather than requests: the HTTP/2 preface
// and the client SETTINGS frame. A protocol-aware adversary discounts
// them when counting GETs.
const setupRecordSkip = 2

// GETClassifier classifies raw client→server segment payloads without
// reassembly — the middlebox's real-time path (the jitter processor must
// decide per packet). It greedily parses record headers from the segment
// start (records rarely straddle segments in this workload: the client
// seals each frame as one record) and falls back to a whole-payload size
// gate when the bytes do not parse as records.
type GETClassifier struct {
	seenAppData int
}

// Count returns how many GET-classified records the payload carries.
func (g *GETClassifier) Count(payload []byte) int {
	if len(payload) == 0 {
		return 0
	}
	n := 0
	rest := payload
	parsedAny := false
	for {
		hdr, ok := tlsrec.ParseHeader(rest)
		if !ok || tlsrec.HeaderSize+hdr.Length > len(rest) {
			break
		}
		parsedAny = true
		if hdr.Type == tlsrec.ContentApplicationData {
			g.seenAppData++
			wire := tlsrec.HeaderSize + hdr.Length
			if g.seenAppData > setupRecordSkip && wire >= getMinRecordLen && wire <= getMaxRecordLen {
				n++
			}
		}
		rest = rest[tlsrec.HeaderSize+hdr.Length:]
		if len(rest) == 0 {
			break
		}
	}
	if !parsedAny {
		// Unaligned continuation bytes: gate on the whole payload.
		g.seenAppData++
		if g.seenAppData > setupRecordSkip && len(payload) >= getMinRecordLen && len(payload) <= getMaxRecordLen {
			return 1
		}
	}
	return n
}

// RecordEvent is one parsed TLS record observed on the path.
type RecordEvent struct {
	// Time is when the packet completing the record crossed the tap.
	Time time.Duration
	Dir  netsim.Direction
	Type tlsrec.ContentType
	// WireLen is the record's on-stream size (header + sealed payload).
	WireLen int
	// PlainLen is the inferred plaintext length (sealed length minus the
	// constant AEAD overhead); zero for handshake records.
	PlainLen int
	// IsGET marks client→server records classified as GET requests.
	IsGET bool
	// IsControl marks client→server application records too small to be
	// GETs: WINDOW_UPDATE, SETTINGS ACK and RST_STREAM records. The
	// adaptive driver's clean-slate watchdog consumes these — during a
	// starvation window the client sends almost no flow-control updates,
	// so a burst of small control records is the browser resetting.
	IsControl bool
	// Tainted marks records whose bytes arrived (at least partly) via
	// TCP-retransmitted segments — tshark's tcp.analysis.retransmission.
	// The predictor excludes them: retransmitted bytes are replays of
	// traffic already accounted for, not fresh object data.
	Tainted bool
}

// PacketStats aggregates per-direction packet-level observations.
type PacketStats struct {
	Packets       int
	Records       int // TLS records parsed from the forwarded stream
	PayloadBytes  int64
	Retransmits   int // segments flagged as TCP retransmissions
	DroppedPolicy int // packets the adversary itself dropped
	DroppedOther  int
}

// Monitor is the passive tap. Install it on a netsim.Path with AddTap.
type Monitor struct {
	records      []RecordEvent
	stats        [2]PacketStats // indexed by dirIndex
	streams      [2]dirStream   // indexed by dirIndex
	getCount     int
	c2sAppCount  int
	controlCount int
	lastS2CData  time.Duration
	anyS2CData   bool
	onGET        func(count int, ev RecordEvent)
	onControl    func(count int, ev RecordEvent)
	onTeardown   func(now time.Duration, dir netsim.Direction)
	logPackets   bool
	packets      []PacketRecord
	dropRecords  bool // DropRecords: count records, keep none

	tr *trace.Tracer
	fl *flowseq.Analyzer
}

var _ netsim.Tap = (*Monitor)(nil)

// NewMonitor returns an empty monitor. ins.Trace turns each GET-classified
// record into a trace event. ins.Flows receives every parsed record, which
// builds the flowseq analyzer's wire-side burst tables and clean-slate
// span detector as traffic is observed. ins.Check arms reassembly checks
// on both direction streams: the reassembled stream has no gaps, no
// record consumes more bytes than its header declares, and parsed records
// exactly partition the appended bytes.
func NewMonitor(ins instr.Bundle) *Monitor {
	m := &Monitor{tr: ins.Trace, fl: ins.Flows}
	m.streams[dirIndex(netsim.ClientToServer)].ck = ins.Check
	m.streams[dirIndex(netsim.ClientToServer)].ckDir = check.DirC2S
	m.streams[dirIndex(netsim.ServerToClient)].ck = ins.Check
	m.streams[dirIndex(netsim.ServerToClient)].ckDir = check.DirS2C
	return m
}

// dirIndex maps a path direction to its slot in the monitor's arrays.
func dirIndex(dir netsim.Direction) int { return int(dir - netsim.ClientToServer) }

// OnGET registers a callback fired for each newly counted GET (the attack
// driver's phase trigger).
func (m *Monitor) OnGET(fn func(count int, ev RecordEvent)) { m.onGET = fn }

// OnControl registers a callback fired for each client→server control
// record (small post-setup application record: WINDOW_UPDATE, RST_STREAM).
// This is the adaptive driver's RST feed.
func (m *Monitor) OnControl(fn func(count int, ev RecordEvent)) { m.onControl = fn }

// OnTeardown registers a callback fired when a TCP RST segment crosses the
// tap in either direction — the connection is being torn down abortively
// and the attack should degrade to passive observation.
func (m *Monitor) OnTeardown(fn func(now time.Duration, dir netsim.Direction)) { m.onTeardown = fn }

// Records returns all parsed record events in observation order, or
// none after DropRecords.
func (m *Monitor) Records() []RecordEvent { return m.records }

// DropRecords stops retaining parsed records; Stats still counts them
// per direction and every callback and analyzer still sees each one. A
// fleet decoy's monitor calls it: only the target's records are read.
func (m *Monitor) DropRecords() { m.dropRecords = true }

// GETCount reports the GETs counted so far.
func (m *Monitor) GETCount() int { return m.getCount }

// LastServerDataAt reports when the last substantial server→client
// payload packet was forwarded (not dropped) past the tap, and whether
// one has been seen at all. Control records arriving long after this are
// sent by a starved client — the reset-detection context.
func (m *Monitor) LastServerDataAt() (time.Duration, bool) { return m.lastS2CData, m.anyS2CData }

// Stats returns the per-direction packet counters.
func (m *Monitor) Stats(dir netsim.Direction) PacketStats { return m.stats[dirIndex(dir)] }

// TotalRetransmits reports retransmitted segments seen in both directions.
func (m *Monitor) TotalRetransmits() int {
	return m.stats[0].Retransmits + m.stats[1].Retransmits
}

// Observe implements netsim.Tap.
func (m *Monitor) Observe(ev netsim.PacketEvent) {
	seg, ok := ev.Pkt.Payload.(*tcpsim.Segment)
	if !ok {
		return
	}
	st := &m.stats[dirIndex(ev.Pkt.Dir)]
	st.Packets++
	st.PayloadBytes += int64(len(seg.Payload))
	if seg.Retransmit {
		st.Retransmits++
	}
	if m.logPackets {
		// Deep-copy the segment: with trial pooling armed, the original is
		// zeroed and reused as soon as its packet's last delivery fires,
		// while the packet log must outlive the whole trial.
		cp := *seg
		cp.Payload = append([]byte(nil), seg.Payload...)
		m.packets = append(m.packets, PacketRecord{
			Time: ev.Now, Dir: ev.Pkt.Dir, Seg: &cp, Action: ev.Action,
		})
	}
	switch ev.Action {
	case netsim.ActionDroppedPolicy:
		st.DroppedPolicy++
		return // never reaches the receiver: exclude from reassembly
	case netsim.ActionDroppedLoss, netsim.ActionDroppedQueue, netsim.ActionDroppedFault:
		st.DroppedOther++
		return
	}
	if seg.Flags.Has(tcpsim.FlagRST) && m.onTeardown != nil {
		m.onTeardown(ev.Now, ev.Pkt.Dir)
	}
	if ev.Pkt.Dir == netsim.ServerToClient && len(seg.Payload) >= 100 {
		m.lastS2CData = ev.Now
		m.anyS2CData = true
	}
	// Reassemble the forwarded byte stream and parse record headers.
	for _, rec := range m.streams[dirIndex(ev.Pkt.Dir)].push(seg) {
		rec.Time = ev.Now
		rec.Dir = ev.Pkt.Dir
		if rec.Dir == netsim.ClientToServer && rec.Type == tlsrec.ContentApplicationData {
			m.c2sAppCount++
			if m.c2sAppCount > setupRecordSkip {
				switch {
				case rec.WireLen >= getMinRecordLen && rec.WireLen <= getMaxRecordLen:
					rec.IsGET = true
					m.getCount++
				case rec.WireLen < getMinRecordLen:
					rec.IsControl = true
					m.controlCount++
				}
			}
		}
		st.Records++
		if !m.dropRecords {
			m.records = append(m.records, rec)
		}
		if m.fl.Enabled() {
			m.fl.Record(rec.Dir == netsim.ClientToServer, rec.WireLen, rec.PlainLen,
				rec.IsGET, rec.IsControl, rec.Tainted)
		}
		if rec.IsGET {
			if m.tr.Enabled() {
				m.tr.Emit(trace.LayerMonitor, "get",
					trace.Num("count", int64(m.getCount)), trace.Num("wire_len", int64(rec.WireLen)))
			}
			if m.onGET != nil {
				m.onGET(m.getCount, rec)
			}
		}
		if rec.IsControl && m.onControl != nil {
			m.onControl(m.controlCount, rec)
		}
	}
}

// dirStream reassembles one direction's TCP stream (sequence-based, with
// out-of-order buffering and retransmission dedup) and cuts TLS records
// out of it as the bytes arrive. Like tshark's ssl.record fields, it reads
// only record headers: it keeps the open record's 5-byte header, skips the
// body by count, and taints a record when any chunk that supplied one of
// its bytes was a retransmission.
type dirStream struct {
	synSeen bool
	nextSeq uint64
	ooo     []oooChunk // out-of-order chunks, seq-sorted, one per seq

	// The open record: its header bytes so far, how many of its bytes
	// have been consumed (header included), its type and wire length once
	// the header is complete (wire is 0 before), and its taint.
	hdr     [tlsrec.HeaderSize]byte
	have    int
	wire    int
	typ     tlsrec.ContentType
	tainted bool

	evs []RecordEvent // records completed by the current push, reused

	ck    *check.Checker
	ckDir uint8
}

type oooChunk struct {
	seq     uint64
	data    []byte
	tainted bool
}

// push ingests a segment and returns any records completed by it. The
// returned slice is scratch reused by the next push; the caller consumes
// it synchronously.
func (d *dirStream) push(seg *tcpsim.Segment) []RecordEvent {
	d.evs = d.evs[:0]
	if seg.Flags.Has(tcpsim.FlagSYN) {
		d.synSeen = true
		d.nextSeq = seg.Seq + 1
		return nil
	}
	if !d.synSeen || len(seg.Payload) == 0 {
		return nil
	}
	d.ingest(seg.Seq, seg.Payload, seg.Retransmit)
	return d.evs
}

func (d *dirStream) ingest(seq uint64, payload []byte, tainted bool) {
	end := seq + uint64(len(payload))
	switch {
	case end <= d.nextSeq:
		return // pure duplicate of delivered bytes
	case seq <= d.nextSeq:
		d.append(payload[d.nextSeq-seq:], tainted)
		d.drain()
	default:
		// The first chunk stored at a seq wins; the payload is copied
		// because pooled segments are recycled after delivery.
		i, found := slices.BinarySearchFunc(d.ooo, seq, func(c oooChunk, seq uint64) int {
			return cmp.Compare(c.seq, seq)
		})
		if !found {
			cp := append([]byte(nil), payload...)
			d.ooo = slices.Insert(d.ooo, i, oooChunk{seq: seq, data: cp, tainted: tainted})
		}
	}
}

// append consumes fresh in-order bytes into the open record, emitting each
// record it completes.
func (d *dirStream) append(b []byte, tainted bool) {
	d.nextSeq += uint64(len(b))
	if d.ck.Enabled() {
		limit := d.wire
		if d.have < tlsrec.HeaderSize {
			limit = tlsrec.HeaderSize
		}
		d.ck.CaptureAppend(d.ckDir, len(b), d.have, limit, d.nextSeq)
	}
	for len(b) > 0 {
		d.tainted = d.tainted || tainted
		if d.have < tlsrec.HeaderSize {
			n := copy(d.hdr[d.have:], b)
			d.have += n
			b = b[n:]
			if d.have < tlsrec.HeaderSize {
				return
			}
			// ParseHeader never fails on a full header.
			hdr, _ := tlsrec.ParseHeader(d.hdr[:])
			d.typ, d.wire = hdr.Type, tlsrec.HeaderSize+hdr.Length
		}
		n := min(len(b), d.wire-d.have)
		d.have += n
		b = b[n:]
		if d.have == d.wire {
			d.emit(len(b))
		}
	}
}

// emit closes the open record; rest is how many appended bytes are not yet
// consumed.
func (d *dirStream) emit(rest int) {
	plain := 0
	if body := d.wire - tlsrec.HeaderSize; d.typ == tlsrec.ContentApplicationData && body >= tlsrec.SealOverhead {
		plain = body - tlsrec.SealOverhead
	}
	d.evs = append(d.evs, RecordEvent{
		Type:     d.typ,
		WireLen:  d.wire,
		PlainLen: plain,
		Tainted:  d.tainted,
	})
	if d.ck.Enabled() {
		d.ck.CaptureRecord(d.ckDir, d.wire, rest)
	}
	d.have, d.wire, d.tainted = 0, 0, false
}

// drain applies stored chunks lowest-seq first. When one in-order fill
// makes several overlapping out-of-order chunks applicable at once, the
// chunk that supplies an overlapped byte decides which record its taint
// reaches — so the application order must be fixed, or two runs of the
// same trial can taint the same record differently and the adversary's
// record-driven decisions diverge.
func (d *dirStream) drain() {
	i := 0
	for ; i < len(d.ooo) && d.ooo[i].seq <= d.nextSeq; i++ {
		c := d.ooo[i]
		if end := c.seq + uint64(len(c.data)); end > d.nextSeq {
			d.append(c.data[d.nextSeq-c.seq:], c.tainted)
		}
	}
	d.ooo = slices.Delete(d.ooo, 0, i)
}
