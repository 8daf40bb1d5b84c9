package hpack

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func requestFields(path string) []HeaderField {
	return []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.isidewith.com"},
		{Name: ":path", Value: path},
		{Name: "user-agent", Value: "Firefox/74.0"},
		{Name: "accept-encoding", Value: "gzip, deflate"},
	}
}

func roundTrip(t *testing.T, enc *Encoder, dec *Decoder, fields []HeaderField) []HeaderField {
	t.Helper()
	block := enc.Encode(nil, fields)
	got, err := dec.Decode(block)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func fieldsEqualIgnoreSensitive(a, b []HeaderField) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}

func TestRoundTripRequest(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	dec := NewDecoder(DefaultDynamicTableSize)
	want := requestFields("/polls/2020-presidential")
	got := roundTrip(t, enc, dec, want)
	if !fieldsEqualIgnoreSensitive(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestCompressionImprovesOnRepeat(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	first := enc.Encode(nil, requestFields("/emblems/party1.png"))
	second := enc.Encode(nil, requestFields("/emblems/party1.png"))
	if len(second) >= len(first) {
		t.Fatalf("second block (%dB) not smaller than first (%dB)", len(second), len(first))
	}
	if len(second) > len(requestFields(""))+4 {
		t.Fatalf("fully-indexed block too large: %dB", len(second))
	}
}

func TestStatefulSequence(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	dec := NewDecoder(DefaultDynamicTableSize)
	for i := 0; i < 20; i++ {
		path := "/img/" + strings.Repeat("x", i%5)
		want := requestFields(path)
		got := roundTrip(t, enc, dec, want)
		if !fieldsEqualIgnoreSensitive(got, want) {
			t.Fatalf("iteration %d mismatch", i)
		}
	}
}

func TestSensitiveNeverIndexed(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	dec := NewDecoder(DefaultDynamicTableSize)
	fields := []HeaderField{{Name: "authorization", Value: "Bearer tok", Sensitive: true}}
	b1 := enc.Encode(nil, fields)
	b2 := enc.Encode(nil, fields)
	if len(b1) != len(b2) {
		t.Fatal("sensitive field appears to have been indexed")
	}
	if b1[0]&0xf0 != 0x10 {
		t.Fatalf("first byte %#x, want never-indexed pattern 0001", b1[0])
	}
	got, err := dec.Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Sensitive || got[0].Value != "Bearer tok" {
		t.Fatalf("got %+v", got[0])
	}
}

func TestStaticTableContents(t *testing.T) {
	if len(staticTable) != staticTableSize {
		t.Fatalf("static table has %d entries, want %d", len(staticTable), staticTableSize)
	}
	// Spot-check the RFC 7541 Appendix A anchors.
	checks := map[int]HeaderField{
		1:  {Name: ":authority"},
		2:  {Name: ":method", Value: "GET"},
		8:  {Name: ":status", Value: "200"},
		16: {Name: "accept-encoding", Value: "gzip, deflate"},
		38: {Name: "host"},
		61: {Name: "www-authenticate"},
	}
	for idx, want := range checks {
		if staticTable[idx-1] != want {
			t.Fatalf("static[%d] = %+v, want %+v", idx, staticTable[idx-1], want)
		}
	}
}

func TestIndexedFieldSingleByte(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	block := enc.Encode(nil, []HeaderField{{Name: ":method", Value: "GET"}})
	if len(block) != 1 || block[0] != 0x82 {
		t.Fatalf("block = %#v, want [0x82]", block)
	}
}

func TestIntegerCoding(t *testing.T) {
	cases := []struct {
		v      int
		prefix uint
	}{
		{0, 5}, {10, 5}, {30, 5}, {31, 5}, {32, 5}, {1337, 5},
		{0, 7}, {126, 7}, {127, 7}, {128, 7}, {300, 7}, {1 << 20, 7},
		{255, 8}, {256, 8},
	}
	for _, c := range cases {
		enc := appendInteger(nil, 0, c.prefix, c.v)
		got, rest, err := readInteger(enc, c.prefix)
		if err != nil || got != c.v || len(rest) != 0 {
			t.Fatalf("roundtrip(%d, prefix %d) = %d, rest %d, err %v", c.v, c.prefix, got, len(rest), err)
		}
	}
	// RFC 7541 C.1.2: 1337 with 5-bit prefix is 1f 9a 0a.
	got := appendInteger(nil, 0, 5, 1337)
	if len(got) != 3 || got[0] != 0x1f || got[1] != 0x9a || got[2] != 0x0a {
		t.Fatalf("encode(1337,5) = %#v", got)
	}
}

func TestIntegerDecodeErrors(t *testing.T) {
	if _, _, err := readInteger(nil, 7); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty: %v", err)
	}
	if _, _, err := readInteger([]byte{0x7f, 0x80, 0x80}, 7); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated continuation: %v", err)
	}
	overflow := []byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := readInteger(overflow, 7); !errors.Is(err, ErrIntegerOverflow) {
		t.Fatalf("overflow: %v", err)
	}
}

func TestMalformedHuffmanLiteralRejected(t *testing.T) {
	dec := NewDecoder(DefaultDynamicTableSize)
	// Literal with incremental indexing, new name, H bit set, one byte
	// 0x00 — in this code table 0x00 cannot be a whole number of symbols
	// plus valid EOS padding.
	block := []byte{0x40, 0x81, 0x00, 0x00}
	if _, err := dec.Decode(block); !errors.Is(err, ErrHuffman) {
		t.Fatalf("err = %v, want ErrHuffman", err)
	}
}

func TestInvalidIndexRejected(t *testing.T) {
	dec := NewDecoder(DefaultDynamicTableSize)
	if _, err := dec.Decode([]byte{0x80}); !errors.Is(err, ErrInvalidIndex) {
		t.Fatalf("index 0: %v", err)
	}
	if _, err := dec.Decode([]byte{0xff, 0x20}); !errors.Is(err, ErrInvalidIndex) {
		t.Fatalf("out of range: %v", err)
	}
}

func TestTableSizeUpdate(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	dec := NewDecoder(DefaultDynamicTableSize)
	roundTrip(t, enc, dec, requestFields("/a"))
	enc.SetMaxDynamicTableSize(0) // flush
	got := roundTrip(t, enc, dec, requestFields("/a"))
	if !fieldsEqualIgnoreSensitive(got, requestFields("/a")) {
		t.Fatal("mismatch after table flush")
	}
	if dec.table.size != 0 || dec.table.n != 0 {
		t.Fatalf("decoder table not flushed: size=%d", dec.table.size)
	}
	// Growing again still round-trips.
	enc.SetMaxDynamicTableSize(DefaultDynamicTableSize)
	got = roundTrip(t, enc, dec, requestFields("/b"))
	if !fieldsEqualIgnoreSensitive(got, requestFields("/b")) {
		t.Fatal("mismatch after table regrow")
	}
}

func TestResizeAboveLimitRejected(t *testing.T) {
	dec := NewDecoder(100)
	block := appendInteger(nil, 0x20, 5, 4096)
	if _, err := dec.Decode(block); !errors.Is(err, ErrResizeExceedsLimit) {
		t.Fatalf("err = %v, want ErrResizeExceedsLimit", err)
	}
}

func TestResizeNotAtStartRejected(t *testing.T) {
	dec := NewDecoder(DefaultDynamicTableSize)
	block := []byte{0x82}
	block = appendInteger(block, 0x20, 5, 0)
	if _, err := dec.Decode(block); err == nil {
		t.Fatal("mid-block size update accepted")
	}
}

func TestEvictionKeepsSizeBounded(t *testing.T) {
	enc := NewEncoder(200)
	dec := NewDecoder(200)
	for i := 0; i < 50; i++ {
		f := []HeaderField{{Name: "x-custom-header", Value: strings.Repeat("v", i%40)}}
		got := roundTrip(t, enc, dec, f)
		if !fieldsEqualIgnoreSensitive(got, f) {
			t.Fatalf("iteration %d mismatch", i)
		}
		if enc.table.size > 200 || dec.table.size > 200 {
			t.Fatalf("table exceeded max: enc=%d dec=%d", enc.table.size, dec.table.size)
		}
	}
}

func TestOversizeEntryEmptiesTable(t *testing.T) {
	tbl := newDynamicTable(64)
	tbl.add(HeaderField{Name: "a", Value: "b"})
	tbl.add(HeaderField{Name: "huge", Value: strings.Repeat("v", 200)})
	if tbl.n != 0 || tbl.size != 0 {
		t.Fatalf("table not emptied: %d entries, %d bytes", tbl.n, tbl.size)
	}
}

func TestHeaderListSizeLimit(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	dec := NewDecoder(DefaultDynamicTableSize)
	dec.MaxHeaderListSize = 100
	fields := []HeaderField{{Name: "big", Value: strings.Repeat("v", 200)}}
	dec.MaxStringLength = 1 << 20
	block := enc.Encode(nil, fields)
	if _, err := dec.Decode(block); err == nil {
		t.Fatal("oversized header list accepted")
	}
}

func TestTruncatedLiteralRejected(t *testing.T) {
	dec := NewDecoder(DefaultDynamicTableSize)
	enc := NewEncoder(DefaultDynamicTableSize)
	block := enc.Encode(nil, []HeaderField{{Name: "x-a", Value: "yyyy"}})
	for cut := 1; cut < len(block); cut++ {
		if _, err := dec.Decode(block[:cut]); err == nil {
			// Some prefixes happen to be valid complete blocks only if
			// they contain whole fields; a literal cut mid-string must fail.
			t.Fatalf("truncated block at %d accepted", cut)
		}
	}
}

// Property: any sequence of header lists round-trips through a fresh
// encoder/decoder pair, including values with arbitrary bytes.
func TestRoundTripProperty(t *testing.T) {
	f := func(names, values [][]byte) bool {
		enc := NewEncoder(DefaultDynamicTableSize)
		dec := NewDecoder(DefaultDynamicTableSize)
		dec.MaxStringLength = 1 << 20
		var fields []HeaderField
		for i := range names {
			v := ""
			if i < len(values) {
				v = string(values[i])
			}
			name := string(names[i])
			if name == "" {
				name = "empty"
			}
			if len(name) > 4096 || len(v) > 4096 {
				continue
			}
			fields = append(fields, HeaderField{Name: name, Value: v, Sensitive: i%3 == 0})
		}
		block := enc.Encode(nil, fields)
		got, err := dec.Decode(block)
		if err != nil {
			return false
		}
		return fieldsEqualIgnoreSensitive(got, fields)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated encoding of the same list never grows and stays
// decodable (dynamic-table state convergence).
func TestConvergenceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		enc := NewEncoder(DefaultDynamicTableSize)
		dec := NewDecoder(DefaultDynamicTableSize)
		fields := []HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":path", Value: "/p/" + strings.Repeat("a", int(seed)%30)},
			{Name: "cookie", Value: strings.Repeat("c", int(seed)%50)},
		}
		prev := 1 << 30
		for i := 0; i < 5; i++ {
			block := enc.Encode(nil, fields)
			if got, err := dec.Decode(block); err != nil || !fieldsEqualIgnoreSensitive(got, fields) {
				return false
			}
			if len(block) > prev {
				return false
			}
			prev = len(block)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeReflectsEncoderOrder(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	dec := NewDecoder(DefaultDynamicTableSize)
	want := []HeaderField{
		{Name: "b", Value: "2"},
		{Name: "a", Value: "1"},
		{Name: "b", Value: "2"},
	}
	got := roundTrip(t, enc, dec, want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order not preserved: %+v", got)
	}
}
