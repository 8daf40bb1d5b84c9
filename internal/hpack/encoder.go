package hpack

// DefaultDynamicTableSize is the SETTINGS_HEADER_TABLE_SIZE default (RFC
// 7540 §6.5.2).
const DefaultDynamicTableSize = 4096

// Encoder compresses header lists into HPACK header blocks. An Encoder is
// stateful (it maintains the dynamic table the peer's Decoder mirrors) and
// must see every header block of the connection, in order.
type Encoder struct {
	table         *dynamicTable
	pendingResize int // -1 when no resize is pending
	// UseHuffman emits Huffman-coded string literals when they are
	// shorter than the plain encoding (see huffman.go for the table
	// provenance). Off by default.
	UseHuffman bool
}

// NewEncoder returns an encoder with the given dynamic-table capacity.
func NewEncoder(maxTableSize int) *Encoder {
	if maxTableSize < 0 {
		maxTableSize = 0
	}
	return &Encoder{table: newDynamicTable(maxTableSize), pendingResize: -1}
}

// SetMaxDynamicTableSize schedules a dynamic-table size update; the update
// instruction is emitted at the start of the next header block (RFC 7541
// §4.2).
func (e *Encoder) SetMaxDynamicTableSize(n int) {
	if n < 0 {
		n = 0
	}
	e.pendingResize = n
}

// Encode appends the header block for fields to dst and returns it.
func (e *Encoder) Encode(dst []byte, fields []HeaderField) []byte {
	if e.pendingResize >= 0 {
		e.table.setMaxSize(e.pendingResize)
		dst = appendInteger(dst, 0x20, 5, e.pendingResize)
		e.pendingResize = -1
	}
	for _, f := range fields {
		dst = e.encodeField(dst, f)
	}
	return dst
}

func (e *Encoder) encodeField(dst []byte, f HeaderField) []byte {
	if f.Sensitive {
		// Never-indexed literal (§6.2.3): 0001 prefix.
		return e.encodeLiteral(dst, 0x10, 4, f, false)
	}
	// Exact match: indexed field (§6.1).
	if idx := staticExact[fieldKey{f.Name, f.Value}]; idx != 0 {
		return appendInteger(dst, 0x80, 7, idx)
	}
	if idx := e.table.findExact(f); idx != 0 {
		return appendInteger(dst, 0x80, 7, idx)
	}
	// Literal with incremental indexing (§6.2.1): 01 prefix.
	dst = e.encodeLiteral(dst, 0x40, 6, f, true)
	e.table.add(f)
	return dst
}

// encodeString emits a string literal, Huffman-coded when enabled and
// profitable.
func (e *Encoder) encodeString(dst []byte, s string) []byte {
	if e.UseHuffman {
		if hl := HuffmanEncodeLength(s); hl < len(s) {
			dst = appendInteger(dst, 0x80, 7, hl)
			return AppendHuffmanString(dst, s)
		}
	}
	return appendString(dst, s)
}

// encodeLiteral emits a literal field with the given pattern/prefix,
// using a name index when one exists.
func (e *Encoder) encodeLiteral(dst []byte, pattern byte, prefix uint, f HeaderField, allowDynName bool) []byte {
	nameIdx := staticName[f.Name]
	if nameIdx == 0 && allowDynName {
		nameIdx = e.table.findName(f.Name)
	}
	dst = appendInteger(dst, pattern, prefix, nameIdx)
	if nameIdx == 0 {
		dst = e.encodeString(dst, f.Name)
	}
	return e.encodeString(dst, f.Value)
}

// DynamicTableSize returns the current dynamic-table size in RFC 7541
// §4.1 bytes. Invariant checkers compare it against the peer decoder's
// table after each header block.
func (e *Encoder) DynamicTableSize() int { return e.table.size }
