package capture

import (
	"fmt"
	"slices"
	"testing"

	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
)

// recordStream draws n bytes of TLS-record stream: mostly well-formed
// records of small bodies (zero-length records included), with runs of raw
// random bytes whose "headers" declare arbitrary lengths.
func recordStream(rng *simtime.Rand, n int) []byte {
	var b []byte
	types := []tlsrec.ContentType{tlsrec.ContentHandshake, tlsrec.ContentApplicationData, tlsrec.ContentAlert}
	for len(b) < n {
		if rng.Bool(0.1) {
			for k := rng.Intn(12); k > 0; k-- {
				b = append(b, byte(rng.Intn(256)))
			}
			continue
		}
		body := 0
		if !rng.Bool(0.15) {
			body = rng.Intn(120)
		}
		b = append(b, byte(types[rng.Intn(len(types))]), 3, 3, byte(body>>8), byte(body))
		for k := 0; k < body; k++ {
			b = append(b, byte(rng.Intn(256)))
		}
	}
	return b[:n]
}

// segOp is one segment of stream[lo:hi] delivered to a reassembler.
type segOp struct {
	lo, hi     int
	retransmit bool
}

// randomOps cuts stream into segments and delivers them out of order,
// with duplicates and overlapping retransmissions.
func randomOps(rng *simtime.Rand, n int) []segOp {
	var ops []segOp
	maxSeg := 1 + rng.Intn(60)
	for pos := 0; pos < n; {
		end := min(n, pos+1+rng.Intn(maxSeg))
		ops = append(ops, segOp{lo: pos, hi: end, retransmit: rng.Bool(0.2)})
		if rng.Bool(0.25) { // an overlapping retransmission
			lo := max(0, pos-rng.Intn(30))
			ops = append(ops, segOp{lo: lo, hi: min(n, end+rng.Intn(30)), retransmit: true})
		}
		pos = end
	}
	// Reorder: swap random pairs within a short window.
	for i := range ops {
		if rng.Bool(0.3) {
			j := min(len(ops)-1, i+rng.Intn(6))
			ops[i], ops[j] = ops[j], ops[i]
		}
	}
	return ops
}

const streamBase = 5000 // ISN; data starts at streamBase+1

// diffDirStream feeds the same SYN and segments to dirStream and the
// reference, comparing the records emitted by every push and then the
// leftover state: next sequence number, the open record's buffered bytes
// and the stored out-of-order chunks.
func diffDirStream(stream []byte, ops []segOp) error {
	d, r := &dirStream{}, newRefDirStream()
	syn := &tcpsim.Segment{Flags: tcpsim.FlagSYN, Seq: streamBase}
	d.push(syn)
	r.push(syn)
	for i, op := range ops {
		seg := &tcpsim.Segment{Flags: tcpsim.FlagACK, Seq: streamBase + 1 + uint64(op.lo),
			Payload: stream[op.lo:op.hi], Retransmit: op.retransmit}
		got, want := d.push(seg), r.push(seg)
		if !slices.Equal(got, want) {
			return fmt.Errorf("push %d %+v: records %+v, want %+v", i, op, got, want)
		}
	}
	if d.nextSeq != r.nextSeq {
		return fmt.Errorf("nextSeq %d, want %d", d.nextSeq, r.nextSeq)
	}
	if want := len(r.buf) - r.off; d.have != want {
		return fmt.Errorf("open record holds %d bytes, want %d", d.have, want)
	}
	if len(d.ooo) != len(r.ooo) {
		return fmt.Errorf("%d out-of-order chunks left, want %d", len(d.ooo), len(r.ooo))
	}
	for _, c := range d.ooo {
		w, ok := r.ooo[c.seq]
		if !ok || w.tainted != c.tainted || string(w.data) != string(c.data) {
			return fmt.Errorf("leftover chunk at seq %d differs", c.seq)
		}
	}
	return nil
}

func TestDirStreamMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		rng := simtime.NewRand(seed)
		stream := recordStream(rng, 1+rng.Intn(1500))
		ops := randomOps(rng, len(stream))
		if rng.Bool(0.2) {
			ops = ops[:rng.Intn(len(ops))] // stop mid-stream
		}
		if err := diffDirStream(stream, ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzDirStream decodes segments of a fuzzed stream from 4-byte ops
// (start, length, retransmit flag) and holds dirStream to the reference.
func FuzzDirStream(f *testing.F) {
	f.Add([]byte{23, 3, 3, 0, 2, 9, 9, 22, 3, 3, 0, 0}, []byte{0, 6, 20, 0, 0, 0, 7, 1})
	f.Add([]byte{23, 3, 3, 0, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{0, 8, 8, 1, 0, 0, 4, 0, 0, 3, 10, 1})
	f.Fuzz(func(t *testing.T, stream, raw []byte) {
		var ops []segOp
		for ; len(raw) >= 4; raw = raw[4:] {
			lo := (int(raw[0])<<8 | int(raw[1])) % (len(stream) + 1)
			ops = append(ops, segOp{lo: lo, hi: min(len(stream), lo+int(raw[2])), retransmit: raw[3]&1 != 0})
		}
		if err := diffDirStream(stream, ops); err != nil {
			t.Fatal(err)
		}
	})
}
