package metrics

import (
	"encoding/binary"
	"fmt"
	"testing"

	"h2privacy/internal/simtime"
)

// randomSpans draws a span set that stresses the envelope sweep: offsets
// from a narrow range (nested, abutting and identical envelopes, offsets
// shared within and across instances), zero-length spans, single-span
// instances, several instances per object, and sizes under which some
// instances are complete and some partial.
func randomSpans(rng *simtime.Rand) ([]TxSpan, map[string]int) {
	nInst := 1 + rng.Intn(8)
	span := int64(50 + rng.Intn(2000))
	var spans []TxSpan
	bytes := map[string]int{}
	objOf := map[string]string{}
	for i := 0; i < nInst; i++ {
		inst := fmt.Sprintf("i%d", i)
		objOf[inst] = fmt.Sprintf("o%d", rng.Intn(3))
	}
	nSpans := 1 + rng.Intn(60)
	off := int64(0)
	for k := 0; k < nSpans; k++ {
		inst := fmt.Sprintf("i%d", rng.Intn(nInst))
		ln := rng.Intn(40)
		if rng.Bool(0.1) {
			ln = 0
		}
		switch rng.Intn(3) {
		case 0: // sequential, abutting the previous span
		case 1: // anywhere in the window
			off = int64(rng.Intn(int(span)))
		case 2: // on a small grid: shared offsets
			off = int64(rng.Intn(8)) * 10
		}
		spans = append(spans, TxSpan{Instance: inst, ObjectID: objOf[inst], Offset: off, Len: ln})
		bytes[inst] += ln
		off += int64(ln)
	}
	sizes := map[string]int{}
	for inst, n := range bytes {
		if rng.Bool(0.5) {
			sizes[objOf[inst]] = n
		} else if _, ok := sizes[objOf[inst]]; !ok {
			sizes[objOf[inst]] = n + 1
		}
	}
	return spans, sizes
}

func TestAnalyzeDoMMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3000; seed++ {
		rng := simtime.NewRand(seed)
		spans, sizes := randomSpans(rng)
		for _, sz := range []map[string]int{sizes, nil} {
			got := AnalyzeDoM(append([]TxSpan(nil), spans...), sz)
			if d := DiffDoM(got, RefAnalyzeDoM(spans, sz)); d != "" {
				t.Fatalf("seed %d (sizes %v): %s\nspans: %+v", seed, sz, d, spans)
			}
		}
	}
}

// An instance with many spans at one offset sorts past the insertion-sort
// cutoff; the tie order decides its runs, and must match the reference's.
func TestAnalyzeDoMSharedOffsetTies(t *testing.T) {
	var spans []TxSpan
	for k := 0; k < 50; k++ {
		spans = append(spans, TxSpan{Instance: "a", ObjectID: "a", Offset: int64(k%4) * 7, Len: 1 + (k*13)%9})
	}
	spans = append(spans, TxSpan{Instance: "b", ObjectID: "b", Offset: 10, Len: 5})
	if d := DiffDoM(AnalyzeDoM(spans, nil), RefAnalyzeDoM(spans, nil)); d != "" {
		t.Fatal(d)
	}
}

func TestAnalyzeDoMDoesNotMutateSpans(t *testing.T) {
	spans := []TxSpan{
		{Instance: "a", ObjectID: "a", Offset: 100, Len: 10},
		{Instance: "a", ObjectID: "a", Offset: 0, Len: 10},
	}
	AnalyzeDoM(spans, nil)
	if spans[0].Offset != 100 {
		t.Fatal("AnalyzeDoM reordered its input")
	}
}

// FuzzDoM decodes 4 bytes per span (instance, offset, length, object) and
// checks AnalyzeDoM against the reference implementation.
func FuzzDoM(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 1, 5, 10, 1, 0, 10, 10, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 1, 2, 0, 255, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var spans []TxSpan
		for len(data) >= 4 {
			spans = append(spans, TxSpan{
				Instance: fmt.Sprintf("i%d", data[0]%6),
				ObjectID: fmt.Sprintf("o%d", data[3]%3),
				Offset:   int64(binary.BigEndian.Uint16(data[1:3]) >> 6),
				Len:      int(data[2]%64) - 4,
			})
			data = data[4:]
		}
		sizes := map[string]int{"o0": 10, "o1": 20, "o2": 0}
		for _, sz := range []map[string]int{sizes, nil} {
			if d := DiffDoM(AnalyzeDoM(spans, sz), RefAnalyzeDoM(spans, sz)); d != "" {
				t.Fatalf("%s\nspans: %+v", d, spans)
			}
		}
	})
}
