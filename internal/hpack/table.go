// Package hpack implements RFC 7541 header compression for HTTP/2: the
// 61-entry static table, a size-bounded dynamic table, prefix-integer and
// string literal primitives, and an encoder/decoder pair.
//
// Huffman string literals are fully supported at the bit level (encoder
// opt-in via Encoder.UseHuffman, decoder always); see huffman.go for the
// one documented deviation about the code table's provenance.
package hpack

// A HeaderField is a single name/value pair. Sensitive fields are encoded
// as never-indexed literals (RFC 7541 §6.2.3) so intermediaries do not
// cache them.
type HeaderField struct {
	Name      string
	Value     string
	Sensitive bool
}

// size is the RFC 7541 §4.1 entry size: name + value + 32 bytes overhead.
func (f HeaderField) size() int { return len(f.Name) + len(f.Value) + 32 }

// staticTable is the RFC 7541 Appendix A static table. Index 1 is the
// first entry.
var staticTable = []HeaderField{
	{Name: ":authority"},
	{Name: ":method", Value: "GET"},
	{Name: ":method", Value: "POST"},
	{Name: ":path", Value: "/"},
	{Name: ":path", Value: "/index.html"},
	{Name: ":scheme", Value: "http"},
	{Name: ":scheme", Value: "https"},
	{Name: ":status", Value: "200"},
	{Name: ":status", Value: "204"},
	{Name: ":status", Value: "206"},
	{Name: ":status", Value: "304"},
	{Name: ":status", Value: "400"},
	{Name: ":status", Value: "404"},
	{Name: ":status", Value: "500"},
	{Name: "accept-charset"},
	{Name: "accept-encoding", Value: "gzip, deflate"},
	{Name: "accept-language"},
	{Name: "accept-ranges"},
	{Name: "accept"},
	{Name: "access-control-allow-origin"},
	{Name: "age"},
	{Name: "allow"},
	{Name: "authorization"},
	{Name: "cache-control"},
	{Name: "content-disposition"},
	{Name: "content-encoding"},
	{Name: "content-language"},
	{Name: "content-length"},
	{Name: "content-location"},
	{Name: "content-range"},
	{Name: "content-type"},
	{Name: "cookie"},
	{Name: "date"},
	{Name: "etag"},
	{Name: "expect"},
	{Name: "expires"},
	{Name: "from"},
	{Name: "host"},
	{Name: "if-match"},
	{Name: "if-modified-since"},
	{Name: "if-none-match"},
	{Name: "if-range"},
	{Name: "if-unmodified-since"},
	{Name: "last-modified"},
	{Name: "link"},
	{Name: "location"},
	{Name: "max-forwards"},
	{Name: "proxy-authenticate"},
	{Name: "proxy-authorization"},
	{Name: "range"},
	{Name: "referer"},
	{Name: "refresh"},
	{Name: "retry-after"},
	{Name: "server"},
	{Name: "set-cookie"},
	{Name: "strict-transport-security"},
	{Name: "transfer-encoding"},
	{Name: "user-agent"},
	{Name: "vary"},
	{Name: "via"},
	{Name: "www-authenticate"},
}

// staticTableSize is the number of static entries (61).
const staticTableSize = 61

// fieldKey is a (name, value) pair as a map key.
type fieldKey struct{ name, value string }

// staticExact maps a (name, value) pair to its static index for exact
// matches; staticName maps a name to the lowest static index with that
// name.
var (
	staticExact = buildStaticExact()
	staticName  = buildStaticName()
)

func buildStaticExact() map[fieldKey]int {
	m := make(map[fieldKey]int, len(staticTable))
	for i, f := range staticTable {
		key := fieldKey{f.Name, f.Value}
		if _, ok := m[key]; !ok {
			m[key] = i + 1
		}
	}
	return m
}

func buildStaticName() map[string]int {
	m := make(map[string]int, len(staticTable))
	for i, f := range staticTable {
		if _, ok := m[f.Name]; !ok {
			m[f.Name] = i + 1
		}
	}
	return m
}

// dynamicTable is the shared dynamic-table logic: a ring buffer whose
// position 0 is the newest entry, so absolute HPACK index = staticTableSize
// + 1 + position. Inserting and evicting move no entries, and the ring
// only grows, so a table in steady state does not allocate.
type dynamicTable struct {
	ring    []HeaderField // len is 0 or a power of two
	head    int           // ring index of position 0 (the newest entry)
	n       int           // entries held
	size    int
	maxSize int
}

func newDynamicTable(maxSize int) *dynamicTable {
	return &dynamicTable{maxSize: maxSize}
}

// at returns the entry at position pos (0 is the newest), pos < t.n.
func (t *dynamicTable) at(pos int) *HeaderField {
	return &t.ring[(t.head+pos)&(len(t.ring)-1)]
}

// add inserts an entry, evicting from the oldest end until it fits. An
// entry larger than the table empties the table (RFC 7541 §4.4).
func (t *dynamicTable) add(f HeaderField) {
	sz := f.size()
	for t.size+sz > t.maxSize && t.n > 0 {
		t.evictOldest()
	}
	if sz > t.maxSize {
		return
	}
	if t.n == len(t.ring) {
		grown := make([]HeaderField, max(8, 2*len(t.ring)))
		for pos := 0; pos < t.n; pos++ {
			grown[pos] = *t.at(pos)
		}
		t.ring, t.head = grown, 0
	}
	t.head = (t.head - 1) & (len(t.ring) - 1)
	t.ring[t.head] = f
	t.n++
	t.size += sz
}

func (t *dynamicTable) evictOldest() {
	last := t.at(t.n - 1)
	t.size -= last.size()
	*last = HeaderField{} // drop the strings
	t.n--
}

// setMaxSize resizes the table, evicting as needed.
func (t *dynamicTable) setMaxSize(n int) {
	t.maxSize = n
	for t.size > t.maxSize {
		t.evictOldest()
	}
}

// get returns the entry at the given absolute HPACK index (static and
// dynamic spaces combined), or false when out of range.
func (t *dynamicTable) get(index int) (HeaderField, bool) {
	if index >= 1 && index <= staticTableSize {
		return staticTable[index-1], true
	}
	pos := index - staticTableSize - 1
	if pos < 0 || pos >= t.n {
		return HeaderField{}, false
	}
	return *t.at(pos), true
}

// findExact returns the absolute index of an exact (name, value) match in
// the dynamic table, or 0.
func (t *dynamicTable) findExact(f HeaderField) int {
	for pos := 0; pos < t.n; pos++ {
		if e := t.at(pos); e.Name == f.Name && e.Value == f.Value {
			return staticTableSize + 1 + pos
		}
	}
	return 0
}

// findName returns the absolute index of a name match in the dynamic
// table, or 0.
func (t *dynamicTable) findName(name string) int {
	for pos := 0; pos < t.n; pos++ {
		if t.at(pos).Name == name {
			return staticTableSize + 1 + pos
		}
	}
	return 0
}
