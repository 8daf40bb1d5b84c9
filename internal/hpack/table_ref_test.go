package hpack

import (
	"fmt"
	"strings"
	"testing"

	"h2privacy/internal/simtime"
)

// refTable is the prepend-slice dynamic table the ring replaced, kept as
// the reference TestDynamicTableMatchesReference holds the ring to: every
// insert allocates a new slice and copies the whole table behind the new
// entry.
type refTable struct {
	entries []HeaderField // entries[0] is the newest
	size    int
	maxSize int
}

func (t *refTable) add(f HeaderField) {
	sz := f.size()
	for t.size+sz > t.maxSize && len(t.entries) > 0 {
		t.evictOldest()
	}
	if sz > t.maxSize {
		return
	}
	t.entries = append([]HeaderField{f}, t.entries...)
	t.size += sz
}

func (t *refTable) evictOldest() {
	last := len(t.entries) - 1
	t.size -= t.entries[last].size()
	t.entries = t.entries[:last]
}

func (t *refTable) setMaxSize(n int) {
	t.maxSize = n
	for t.size > t.maxSize {
		t.evictOldest()
	}
}

func (t *refTable) get(index int) (HeaderField, bool) {
	if index >= 1 && index <= staticTableSize {
		return staticTable[index-1], true
	}
	pos := index - staticTableSize - 1
	if pos < 0 || pos >= len(t.entries) {
		return HeaderField{}, false
	}
	return t.entries[pos], true
}

func (t *refTable) findExact(f HeaderField) int {
	for i, e := range t.entries {
		if e.Name == f.Name && e.Value == f.Value {
			return staticTableSize + 1 + i
		}
	}
	return 0
}

func (t *refTable) findName(name string) int {
	for i, e := range t.entries {
		if e.Name == name {
			return staticTableSize + 1 + i
		}
	}
	return 0
}

// compareTables checks every observable of the ring against the
// reference: size, every index (and a few past the end), and exact and
// name lookups for every held entry plus misses.
func compareTables(ring *dynamicTable, ref *refTable) error {
	if ring.size != ref.size || ring.n != len(ref.entries) || ring.maxSize != ref.maxSize {
		return fmt.Errorf("size/n/max = %d/%d/%d, want %d/%d/%d",
			ring.size, ring.n, ring.maxSize, ref.size, len(ref.entries), ref.maxSize)
	}
	for idx := -1; idx <= staticTableSize+len(ref.entries)+3; idx++ {
		g, gok := ring.get(idx)
		w, wok := ref.get(idx)
		if g != w || gok != wok {
			return fmt.Errorf("get(%d) = %+v,%t, want %+v,%t", idx, g, gok, w, wok)
		}
	}
	probes := append(append([]HeaderField(nil), ref.entries...), HeaderField{Name: "absent", Value: "x"})
	for _, f := range probes {
		if g, w := ring.findExact(f), ref.findExact(f); g != w {
			return fmt.Errorf("findExact(%+v) = %d, want %d", f, g, w)
		}
		if g, w := ring.findName(f.Name), ref.findName(f.Name); g != w {
			return fmt.Errorf("findName(%q) = %d, want %d", f.Name, g, w)
		}
	}
	return nil
}

func TestDynamicTableMatchesReference(t *testing.T) {
	names := []string{"a", "x-custom", "cookie", ":path", "user-agent"}
	for seed := int64(1); seed <= 300; seed++ {
		rng := simtime.NewRand(seed)
		max := rng.Intn(600)
		ring, ref := newDynamicTable(max), &refTable{maxSize: max}
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(20); {
			case r == 0: // resize: to 0, shrinking or growing
				n := 0
				if !rng.Bool(0.3) {
					n = rng.Intn(800)
				}
				ring.setMaxSize(n)
				ref.setMaxSize(n)
			case r == 1: // oversize entry: empties the table
				f := HeaderField{Name: "huge", Value: strings.Repeat("v", ring.maxSize)}
				ring.add(f)
				ref.add(f)
			default: // small entries wrap the ring many times
				f := HeaderField{Name: names[rng.Intn(len(names))], Value: fmt.Sprint(rng.Intn(30))}
				ring.add(f)
				ref.add(f)
			}
			if err := compareTables(ring, ref); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// A repeated request encodes to indexed fields from the dynamic table and
// must not allocate once the table and the output buffer are warm.
func TestEncoderSteadyStateZeroAllocs(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	fields := append(requestFields("/quiz"), HeaderField{Name: "cookie", Value: "id=42", Sensitive: true})
	dst := enc.Encode(nil, fields)
	if allocs := testing.AllocsPerRun(100, func() { dst = enc.Encode(dst[:0], fields) }); allocs != 0 {
		t.Fatalf("steady-state Encode allocates %.1f times per block, want 0", allocs)
	}
}

// Decoding an indexed-only block into a reused slice must not allocate.
func TestAppendDecodeIndexedZeroAllocs(t *testing.T) {
	enc := NewEncoder(DefaultDynamicTableSize)
	dec := NewDecoder(DefaultDynamicTableSize)
	first := enc.Encode(nil, requestFields("/quiz"))
	indexed := enc.Encode(nil, requestFields("/quiz"))
	for _, b := range indexed {
		if b&0x80 == 0 || len(indexed) != len(requestFields("/quiz")) {
			t.Fatalf("repeat block % x is not one indexed field per header", indexed)
		}
	}
	out, err := dec.AppendDecode(nil, first)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if out, err = dec.AppendDecode(out[:0], indexed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendDecode of an indexed block allocates %.1f times, want 0", allocs)
	}
	if !fieldsEqualIgnoreSensitive(out, requestFields("/quiz")) {
		t.Fatalf("decoded %+v", out)
	}
}
