package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDoMSerializedIsZero(t *testing.T) {
	// Fig. 1 Case 1: O2 strictly after O1.
	spans := []TxSpan{
		{Instance: "o1#0", ObjectID: "o1", Offset: 0, Len: 1000},
		{Instance: "o1#0", ObjectID: "o1", Offset: 1000, Len: 1000},
		{Instance: "o2#0", ObjectID: "o2", Offset: 2000, Len: 1500},
	}
	dom := DegreeOfMultiplexing(spans)
	if dom["o1#0"] != 0 || dom["o2#0"] != 0 {
		t.Fatalf("dom = %v, want all zero", dom)
	}
}

func TestDoMInterleavedCase(t *testing.T) {
	// Fig. 1 Case 2: O1S1 O2S1 O1S2 O2S2, equal segment sizes.
	spans := []TxSpan{
		{Instance: "o1#0", ObjectID: "o1", Offset: 0, Len: 100},
		{Instance: "o2#0", ObjectID: "o2", Offset: 100, Len: 100},
		{Instance: "o1#0", ObjectID: "o1", Offset: 200, Len: 100},
		{Instance: "o2#0", ObjectID: "o2", Offset: 300, Len: 100},
	}
	dom := DegreeOfMultiplexing(spans)
	// o1's second segment lies inside o2's envelope [100,400): 100 of 200
	// bytes. Symmetrically for o2's first segment in o1's [0,300).
	if dom["o1#0"] != 0.5 || dom["o2#0"] != 0.5 {
		t.Fatalf("dom = %v, want 0.5 each", dom)
	}
}

func TestDoMFullyNested(t *testing.T) {
	spans := []TxSpan{
		{Instance: "big#0", ObjectID: "big", Offset: 0, Len: 100},
		{Instance: "small#0", ObjectID: "small", Offset: 100, Len: 50},
		{Instance: "big#0", ObjectID: "big", Offset: 150, Len: 100},
	}
	dom := DegreeOfMultiplexing(spans)
	if dom["small#0"] != 1.0 {
		t.Fatalf("nested object dom = %v, want 1", dom["small#0"])
	}
}

func TestDoMRetransmittedCopyCounts(t *testing.T) {
	// Two copies of the same object interleaving with each other still
	// multiplex (the monitor cannot tell copies apart).
	spans := []TxSpan{
		{Instance: "o#0", ObjectID: "o", Offset: 0, Len: 100},
		{Instance: "o#1", ObjectID: "o", Offset: 100, Len: 100},
		{Instance: "o#0", ObjectID: "o", Offset: 200, Len: 100},
		{Instance: "o#1", ObjectID: "o", Offset: 300, Len: 100},
	}
	dom := DegreeOfMultiplexing(spans)
	if dom["o#0"] == 0 || dom["o#1"] == 0 {
		t.Fatalf("copies did not count as interleaving: %v", dom)
	}
}

func TestBestDoMPerObject(t *testing.T) {
	// Copy 0 is interleaved, copy 1 transmits alone afterwards: the
	// object is attackable (§IV-C's retransmitted-version successes).
	spans := []TxSpan{
		{Instance: "o#0", ObjectID: "o", Offset: 0, Len: 100},
		{Instance: "x#0", ObjectID: "x", Offset: 100, Len: 100},
		{Instance: "o#0", ObjectID: "o", Offset: 200, Len: 100},
		{Instance: "o#1", ObjectID: "o", Offset: 1000, Len: 200},
	}
	best := AnalyzeDoM(spans, nil).BestPerObject
	if best["o"] != 0 {
		t.Fatalf("best dom for o = %v, want 0", best["o"])
	}
	if best["x"] != 1 {
		t.Fatalf("best dom for x = %v, want 1 (inside o#0's envelope)", best["x"])
	}
}

func TestDoMSingleObject(t *testing.T) {
	spans := []TxSpan{{Instance: "solo#0", ObjectID: "solo", Offset: 0, Len: 500}}
	if dom := DegreeOfMultiplexing(spans); dom["solo#0"] != 0 {
		t.Fatalf("solo dom = %v", dom)
	}
}

func TestDoMIgnoresEmptySpans(t *testing.T) {
	spans := []TxSpan{
		{Instance: "a#0", ObjectID: "a", Offset: 0, Len: 0},
		{Instance: "b#0", ObjectID: "b", Offset: 0, Len: 10},
	}
	dom := DegreeOfMultiplexing(spans)
	if _, ok := dom["a#0"]; ok {
		t.Fatal("empty instance reported")
	}
	if dom["b#0"] != 0 {
		t.Fatalf("dom = %v", dom)
	}
}

// Property: DoM is always within [0,1], and spans-disjoint instances have
// DoM 0.
func TestDoMBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var spans []TxSpan
		off := int64(0)
		for i, r := range raw {
			l := int(r%1400) + 1
			inst := "i" + string(rune('a'+i%7)) + "#0"
			spans = append(spans, TxSpan{Instance: inst, ObjectID: inst, Offset: off, Len: l})
			off += int64(l)
			if r%3 == 0 {
				off += int64(r % 500) // gaps
			}
		}
		dom := DegreeOfMultiplexing(spans)
		for _, d := range dom {
			if d < 0 || d > 1 || math.IsNaN(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: strictly sequential instances (each begins after the previous
// ends) always have DoM exactly 0.
func TestDoMSequentialProperty(t *testing.T) {
	f := func(lens []uint16) bool {
		var spans []TxSpan
		off := int64(0)
		for i, l := range lens {
			n := int(l%5000) + 1
			inst := TxSpan{Instance: fInst(i), ObjectID: fInst(i), Offset: off, Len: n}
			spans = append(spans, inst)
			off += int64(n)
		}
		for _, d := range DegreeOfMultiplexing(spans) {
			if d != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func fInst(i int) string { return "obj" + string(rune('0'+i%10)) + "x" + string(rune('a'+(i/10)%26)) }

func TestSampleStats(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean=%v", s.Mean())
	}
	var empty Sample
	if empty.Mean() != 0 {
		t.Fatal("empty sample mean not zero")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Observe(true)
	c.Observe(false)
	c.Observe(true)
	c.Observe(true)
	if c.Percent() != 75 {
		t.Fatalf("pct = %v", c.Percent())
	}
	if c.String() != "3/4 (75%)" {
		t.Fatalf("string = %q", c.String())
	}
	var empty Counter
	if empty.Percent() != 0 {
		t.Fatal("empty counter percent")
	}
}

func TestBestCompleteDoMRequiresFullServing(t *testing.T) {
	sizes := map[string]int{"o": 300}
	spans := []TxSpan{
		// Partial serving (200 of 300 bytes), perfectly contiguous.
		{Instance: "o#0", ObjectID: "o", Offset: 0, Len: 200},
		// Complete serving, but interleaved.
		{Instance: "o#1", ObjectID: "o", Offset: 1000, Len: 150},
		{Instance: "x#0", ObjectID: "x", Offset: 1150, Len: 50},
		{Instance: "o#1", ObjectID: "o", Offset: 1200, Len: 150},
	}
	best := AnalyzeDoM(spans, sizes).BestComplete
	if dom, ok := best["o"]; !ok || dom == 0 {
		t.Fatalf("complete dom = %v ok=%t; the contiguous partial must not count", dom, ok)
	}
	// The plain variant would report 0 via the partial instance.
	if AnalyzeDoM(spans, nil).BestPerObject["o"] != 0 {
		t.Fatal("plain best dom should see the partial as serialized")
	}
	// Add a complete serialized serving: now it counts.
	spans = append(spans, TxSpan{Instance: "o#2", ObjectID: "o", Offset: 5000, Len: 300})
	if dom := AnalyzeDoM(spans, sizes).BestComplete["o"]; dom != 0 {
		t.Fatalf("complete serialized serving not recognized: %v", dom)
	}
}
