package capture

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
)

// record builds a fake sealed record of the given type and payload size.
func record(ct tlsrec.ContentType, plainLen int) []byte {
	b := make([]byte, tlsrec.HeaderSize+8+plainLen+tlsrec.TagSize)
	b[0] = byte(ct)
	b[1], b[2] = 0x03, 0x03
	n := 8 + plainLen + tlsrec.TagSize
	b[3], b[4] = byte(n>>8), byte(n)
	return b
}

// seg wraps payload bytes into a segment at the given sequence.
func seg(seqNo uint64, payload []byte, retransmit bool) *tcpsim.Segment {
	return &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: seqNo, Payload: payload, Retransmit: retransmit}
}

// feed pushes a segment through the monitor as a forwarded packet.
func feed(m *Monitor, dir netsim.Direction, at time.Duration, s *tcpsim.Segment) {
	m.Observe(netsim.PacketEvent{
		Now:    at,
		Pkt:    &netsim.Packet{Dir: dir, Size: s.WireSize(), Payload: s},
		Action: netsim.ActionForwarded,
	})
}

func syn(m *Monitor, dir netsim.Direction) uint64 {
	s := &tcpsim.Segment{Flags: tcpsim.FlagSYN, Seq: 1000}
	feed(m, dir, 0, s)
	return 1001
}

func TestMonitorParsesRecords(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	next := syn(m, netsim.ServerToClient)
	r1 := record(tlsrec.ContentHandshake, 33)
	r2 := record(tlsrec.ContentApplicationData, 1209)
	feed(m, netsim.ServerToClient, time.Millisecond, seg(next, append(r1, r2...), false))
	recs := m.Records()
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	if recs[0].Type != tlsrec.ContentHandshake {
		t.Fatalf("first record type %v", recs[0].Type)
	}
	if recs[1].Type != tlsrec.ContentApplicationData || recs[1].PlainLen != 1209 {
		t.Fatalf("second record = %+v", recs[1])
	}
}

// TestMonitorDropRecordsKeepsCounts pins a decoy monitor's contract:
// after DropRecords it retains no record, but counts each one per
// direction and still fires the GET callback.
func TestMonitorDropRecordsKeepsCounts(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	m.DropRecords()
	gets := 0
	m.OnGET(func(int, RecordEvent) { gets++ })
	next := syn(m, netsim.ClientToServer)
	var wire []byte
	for i := 0; i < setupRecordSkip+2; i++ {
		wire = append(wire, record(tlsrec.ContentApplicationData, 100)...)
	}
	feed(m, netsim.ClientToServer, time.Millisecond, seg(next, wire, false))
	if n := len(m.Records()); n != 0 {
		t.Fatalf("retained %d records after DropRecords", n)
	}
	if got, want := m.Stats(netsim.ClientToServer).Records, setupRecordSkip+2; got != want {
		t.Fatalf("c2s record count = %d, want %d", got, want)
	}
	if got := m.Stats(netsim.ServerToClient).Records; got != 0 {
		t.Fatalf("s2c record count = %d, want 0", got)
	}
	if gets != 2 || m.GETCount() != 2 {
		t.Fatalf("GET callbacks = %d, count = %d, want 2", gets, m.GETCount())
	}
}

func TestMonitorReassemblesOutOfOrder(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	next := syn(m, netsim.ServerToClient)
	wire := record(tlsrec.ContentApplicationData, 2000)
	half := len(wire) / 2
	// Deliver second half first.
	feed(m, netsim.ServerToClient, 1*time.Millisecond, seg(next+uint64(half), wire[half:], false))
	if len(m.Records()) != 0 {
		t.Fatal("record completed from out-of-order fragment alone")
	}
	feed(m, netsim.ServerToClient, 2*time.Millisecond, seg(next, wire[:half], false))
	if len(m.Records()) != 1 {
		t.Fatalf("parsed %d records after reassembly", len(m.Records()))
	}
}

func TestMonitorDedupsRetransmissions(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	next := syn(m, netsim.ServerToClient)
	wire := record(tlsrec.ContentApplicationData, 500)
	feed(m, netsim.ServerToClient, 1*time.Millisecond, seg(next, wire, false))
	feed(m, netsim.ServerToClient, 2*time.Millisecond, seg(next, wire, true)) // dup
	if len(m.Records()) != 1 {
		t.Fatalf("parsed %d records, want 1 (dedup)", len(m.Records()))
	}
	if got := m.Stats(netsim.ServerToClient).Retransmits; got != 1 {
		t.Fatalf("retransmit count %d", got)
	}
}

func TestMonitorTaintsRetransmittedBytes(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	next := syn(m, netsim.ServerToClient)
	wire := record(tlsrec.ContentApplicationData, 900)
	half := len(wire) / 2
	feed(m, netsim.ServerToClient, 1*time.Millisecond, seg(next, wire[:half], false))
	// The tail arrives only via a retransmission.
	feed(m, netsim.ServerToClient, 5*time.Millisecond, seg(next+uint64(half), wire[half:], true))
	recs := m.Records()
	if len(recs) != 1 || !recs[0].Tainted {
		t.Fatalf("records = %+v, want one tainted", recs)
	}
}

func TestMonitorCountsGETs(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	var gets []int
	m.OnGET(func(count int, ev RecordEvent) { gets = append(gets, count) })
	next := syn(m, netsim.ClientToServer)
	// Preface + SETTINGS (setup records, skipped), then three GETs.
	wire := append(record(tlsrec.ContentApplicationData, 24), record(tlsrec.ContentApplicationData, 33)...)
	for i := 0; i < 3; i++ {
		wire = append(wire, record(tlsrec.ContentApplicationData, 40)...)
	}
	// And a WINDOW_UPDATE-sized record that must not count.
	wire = append(wire, record(tlsrec.ContentApplicationData, 13)...)
	feed(m, netsim.ClientToServer, time.Millisecond, seg(next, wire, false))
	if m.GETCount() != 3 {
		t.Fatalf("GET count = %d, want 3", m.GETCount())
	}
	if len(gets) != 3 || gets[2] != 3 {
		t.Fatalf("callbacks = %v", gets)
	}
}

func TestMonitorIgnoresDroppedPackets(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	next := syn(m, netsim.ServerToClient)
	wire := record(tlsrec.ContentApplicationData, 700)
	m.Observe(netsim.PacketEvent{
		Now:    time.Millisecond,
		Pkt:    &netsim.Packet{Dir: netsim.ServerToClient, Size: 100, Payload: seg(next, wire, false)},
		Action: netsim.ActionDroppedPolicy,
	})
	if len(m.Records()) != 0 {
		t.Fatal("dropped packet reached reassembly")
	}
	if m.Stats(netsim.ServerToClient).DroppedPolicy != 1 {
		t.Fatal("policy drop not counted")
	}
}

func TestGETClassifier(t *testing.T) {
	var g GETClassifier
	// Setup records are skipped.
	if n := g.Count(record(tlsrec.ContentApplicationData, 24)); n != 0 {
		t.Fatalf("preface counted: %d", n)
	}
	if n := g.Count(record(tlsrec.ContentApplicationData, 33)); n != 0 {
		t.Fatalf("settings counted: %d", n)
	}
	// A GET-sized record counts.
	if n := g.Count(record(tlsrec.ContentApplicationData, 45)); n != 1 {
		t.Fatalf("GET record = %d, want 1", n)
	}
	// Two coalesced GETs count as two.
	two := append(record(tlsrec.ContentApplicationData, 45), record(tlsrec.ContentApplicationData, 50)...)
	if n := g.Count(two); n != 2 {
		t.Fatalf("coalesced GETs = %d, want 2", n)
	}
	// A WINDOW_UPDATE-sized record does not.
	if n := g.Count(record(tlsrec.ContentApplicationData, 13)); n != 0 {
		t.Fatalf("window update counted: %d", n)
	}
	// Mid-record continuation bytes (no parseable header at offset 0)
	// fall back to the whole-payload size gate.
	var g2 GETClassifier
	g2.seenAppData = 5
	frag := func(n int) []byte {
		b := make([]byte, n)
		b[0] = 0xff // implausible record type with a huge length field
		b[3] = 0xff
		b[4] = 0xff
		return b
	}
	if n := g2.Count(frag(100)); n != 1 {
		t.Fatalf("fallback gate = %d, want 1", n)
	}
	if n := g2.Count(frag(1400)); n != 0 {
		t.Fatalf("large continuation = %d, want 0", n)
	}
}

// Property: for any split of a record byte stream into segments delivered
// in order, the monitor parses exactly the records sent.
func TestMonitorFragmentationProperty(t *testing.T) {
	f := func(sizes []uint16, cuts []uint8) bool {
		m := NewMonitor(instr.Bundle{})
		next := syn(m, netsim.ServerToClient)
		var wire []byte
		want := 0
		for _, s := range sizes {
			if len(wire) > 1<<16 {
				break
			}
			wire = append(wire, record(tlsrec.ContentApplicationData, int(s%4000))...)
			want++
		}
		if len(wire) == 0 {
			return true
		}
		pos := 0
		seqNo := next
		for _, c := range cuts {
			n := int(c)%1400 + 1
			if pos+n > len(wire) {
				break
			}
			feed(m, netsim.ServerToClient, time.Duration(pos)*time.Microsecond, seg(seqNo, wire[pos:pos+n], false))
			pos += n
			seqNo += uint64(n)
		}
		if pos < len(wire) {
			feed(m, netsim.ServerToClient, time.Duration(pos)*time.Microsecond, seg(seqNo, wire[pos:], false))
		}
		return len(m.Records()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReassemblyTaintDeterministic pins the drain order of the out-of-order
// buffer. When one in-order fill makes two overlapping stored chunks
// applicable at once, the chunk applied first decides which record the
// overlap's taint reaches; lowest-seq-first keeps that fixed. The old
// map-range drain tainted the same records differently run to run, which
// rippled into the adversary's decisions and broke same-seed byte-identity
// across processes.
func TestReassemblyTaintDeterministic(t *testing.T) {
	// Records A [0,210), B [210,220) and C [220,250).
	var stream []byte
	for _, wire := range []int{210, 10, 30} {
		body := wire - tlsrec.HeaderSize
		rec := make([]byte, wire)
		rec[0], rec[1], rec[2], rec[3], rec[4] = byte(tlsrec.ContentApplicationData), 3, 3, byte(body>>8), byte(body)
		stream = append(stream, rec...)
	}
	for i := 0; i < 200; i++ {
		d := &dirStream{}
		d.ingest(150, stream[150:250], true)  // retransmit, lands out of order
		d.ingest(200, stream[200:220], false) // clean, overlaps the chunk above
		d.ingest(0, stream[:210], false)      // fill: both chunks now applicable
		// Lowest seq first: the tainted chunk supplies [210,250) and taints
		// B and C; the clean chunk then adds nothing. The other order would
		// leave B clean.
		want := []RecordEvent{
			{Type: tlsrec.ContentApplicationData, WireLen: 210, PlainLen: 205 - tlsrec.SealOverhead},
			{Type: tlsrec.ContentApplicationData, WireLen: 10, Tainted: true},
			{Type: tlsrec.ContentApplicationData, WireLen: 30, PlainLen: 25 - tlsrec.SealOverhead, Tainted: true},
		}
		if !slices.Equal(d.evs, want) {
			t.Fatalf("iter %d: records %+v, want %+v", i, d.evs, want)
		}
		if d.nextSeq != 250 || d.have != 0 || len(d.ooo) != 0 {
			t.Fatalf("iter %d: nextSeq=%d open=%d ooo=%d, want 250/0/0", i, d.nextSeq, d.have, len(d.ooo))
		}
	}
}
