package capture

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/tcpsim"
)

func TestPacketLogDisabledByDefault(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	next := syn(m, netsim.ClientToServer)
	feed(m, netsim.ClientToServer, time.Millisecond, seg(next, []byte{1, 2, 3}, false))
	if len(m.Packets()) != 0 {
		t.Fatal("packets retained without EnablePacketLog")
	}
}

func TestWritePcapRoundTrip(t *testing.T) {
	m := NewMonitor(instr.Bundle{})
	m.EnablePacketLog()
	next := syn(m, netsim.ClientToServer)
	payload := []byte("GET-ish bytes")
	feed(m, netsim.ClientToServer, 1500*time.Millisecond, seg(next, payload, false))
	// A dropped packet must not be exported.
	m.Observe(netsim.PacketEvent{
		Now:    2 * time.Second,
		Pkt:    &netsim.Packet{Dir: netsim.ServerToClient, Size: 100, Payload: seg(1, []byte("x"), false)},
		Action: netsim.ActionDroppedPolicy,
	})

	var buf bytes.Buffer
	if err := WritePcap(&buf, m.Packets()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < 24 {
		t.Fatalf("pcap too short: %d", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:4]) != pcapMagic {
		t.Fatalf("bad magic %#x", b[0:4])
	}
	if binary.LittleEndian.Uint32(b[20:24]) != linkEthernet {
		t.Fatal("bad link type")
	}
	// Walk the records: SYN (no payload) + data packet = 2 frames.
	off := 24
	frames := 0
	for off < len(b) {
		if off+16 > len(b) {
			t.Fatalf("truncated record header at %d", off)
		}
		incl := int(binary.LittleEndian.Uint32(b[off+8 : off+12]))
		orig := int(binary.LittleEndian.Uint32(b[off+12 : off+16]))
		if incl != orig {
			t.Fatalf("snap mismatch: %d vs %d", incl, orig)
		}
		frame := b[off+16 : off+16+incl]
		if len(frame) < 54 {
			t.Fatalf("frame %d too short: %d", frames, len(frame))
		}
		if frame[12] != 0x08 || frame[13] != 0x00 {
			t.Fatal("not IPv4")
		}
		if frame[14+9] != 6 {
			t.Fatal("not TCP")
		}
		ipLen := int(binary.BigEndian.Uint16(frame[14+2 : 14+4]))
		if ipLen != len(frame)-14 {
			t.Fatalf("IP total length %d, frame payload %d", ipLen, len(frame)-14)
		}
		frames++
		off += 16 + incl
	}
	if frames != 2 {
		t.Fatalf("exported %d frames, want 2 (drop excluded)", frames)
	}
	// The data frame's TCP payload is intact.
	lastFrame := b[len(b)-len(payload):]
	if !bytes.Equal(lastFrame, payload) {
		t.Fatalf("payload corrupted: %q", lastFrame)
	}
}

func TestWritePcapDirectionAddressing(t *testing.T) {
	recs := []PacketRecord{
		{Time: time.Second, Dir: netsim.ClientToServer, Action: netsim.ActionForwarded,
			Seg: &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: 7, Ack: 9, Payload: []byte("req")}},
		{Time: 2 * time.Second, Dir: netsim.ServerToClient, Action: netsim.ActionForwarded,
			Seg: &tcpsim.Segment{Flags: tcpsim.FlagACK | tcpsim.FlagFIN, Seq: 9, Ack: 10, Payload: []byte("resp")}},
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, recs); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// First frame: client → server.
	f1 := b[24+16:]
	srcPort := binary.BigEndian.Uint16(f1[34:36])
	dstPort := binary.BigEndian.Uint16(f1[36:38])
	if srcPort != clientPort || dstPort != serverPort {
		t.Fatalf("c2s ports %d→%d", srcPort, dstPort)
	}
	if binary.BigEndian.Uint32(f1[38:42]) != 7 {
		t.Fatal("seq not encoded")
	}
	// Second frame: server → client with FIN flag.
	off := 24 + 16 + (14 + 20 + 20 + 3)
	f2 := b[off+16:]
	if binary.BigEndian.Uint16(f2[34:36]) != serverPort {
		t.Fatal("s2c source port wrong")
	}
	if f2[34+13]&0x01 == 0 {
		t.Fatal("FIN flag lost")
	}
}
