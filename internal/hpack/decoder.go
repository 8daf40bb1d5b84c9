package hpack

import (
	"errors"
	"fmt"
)

// ErrResizeExceedsLimit reports a dynamic-table size update above the
// limit this decoder advertised in SETTINGS.
var ErrResizeExceedsLimit = errors.New("hpack: table size update exceeds advertised limit")

// Decoder decompresses HPACK header blocks. Like the Encoder it is
// stateful and must see every header block of the connection in order.
type Decoder struct {
	table *dynamicTable
	// limit is the maximum table size this endpoint advertised; size
	// updates above it are a compression error.
	limit int
	// MaxStringLength bounds individual decoded literals (default 16 KiB).
	MaxStringLength int
	// MaxHeaderListSize bounds the total decoded size of one block using
	// the RFC 7540 §10.5.1 accounting (default 1 MiB).
	MaxHeaderListSize int
}

// NewDecoder returns a decoder whose dynamic table may grow to
// maxTableSize bytes.
func NewDecoder(maxTableSize int) *Decoder {
	if maxTableSize < 0 {
		maxTableSize = 0
	}
	return &Decoder{
		table:             newDynamicTable(maxTableSize),
		limit:             maxTableSize,
		MaxStringLength:   16 << 10,
		MaxHeaderListSize: 1 << 20,
	}
}

// SetAllowedMaxTableSize raises/lowers the limit the peer may resize the
// table to (mirrors sending SETTINGS_HEADER_TABLE_SIZE).
func (d *Decoder) SetAllowedMaxTableSize(n int) {
	if n < 0 {
		n = 0
	}
	d.limit = n
	if d.table.maxSize > n {
		d.table.setMaxSize(n)
	}
}

// Decode parses one complete header block.
func (d *Decoder) Decode(block []byte) ([]HeaderField, error) {
	return d.AppendDecode(nil, block)
}

// AppendDecode parses one complete header block, appends its fields to dst
// and returns the extended slice. Decoding into a reused slice makes a
// block of indexed fields allocation-free. On error it returns dst as it
// was passed, with the error.
func (d *Decoder) AppendDecode(dst []HeaderField, block []byte) ([]HeaderField, error) {
	fields := dst
	listSize := 0
	first := true
	for len(block) > 0 {
		b := block[0]
		switch {
		case b&0x80 != 0: // indexed field (§6.1)
			idx, rest, err := readInteger(block, 7)
			if err != nil {
				return dst, err
			}
			if idx == 0 {
				return dst, fmt.Errorf("%w: index 0", ErrInvalidIndex)
			}
			f, ok := d.table.get(idx)
			if !ok {
				return dst, fmt.Errorf("%w: %d", ErrInvalidIndex, idx)
			}
			fields = append(fields, f)
			listSize += f.size()
			block = rest
		case b&0xc0 == 0x40: // literal with incremental indexing (§6.2.1)
			f, rest, err := d.readLiteral(block, 6)
			if err != nil {
				return dst, err
			}
			d.table.add(f)
			fields = append(fields, f)
			listSize += f.size()
			block = rest
		case b&0xe0 == 0x20: // dynamic table size update (§6.3)
			if !first {
				return dst, errors.New("hpack: table size update not at block start")
			}
			n, rest, err := readInteger(block, 5)
			if err != nil {
				return dst, err
			}
			if n > d.limit {
				return dst, fmt.Errorf("%w: %d > %d", ErrResizeExceedsLimit, n, d.limit)
			}
			d.table.setMaxSize(n)
			block = rest
		case b&0xf0 == 0x10: // never-indexed literal (§6.2.3)
			f, rest, err := d.readLiteral(block, 4)
			if err != nil {
				return dst, err
			}
			f.Sensitive = true
			fields = append(fields, f)
			listSize += f.size()
			block = rest
		default: // 0000: literal without indexing (§6.2.2)
			f, rest, err := d.readLiteral(block, 4)
			if err != nil {
				return dst, err
			}
			fields = append(fields, f)
			listSize += f.size()
			block = rest
		}
		first = false
		if listSize > d.MaxHeaderListSize {
			return dst, fmt.Errorf("hpack: header list exceeds %d bytes", d.MaxHeaderListSize)
		}
	}
	return fields, nil
}

// readLiteral parses a literal field whose name-index prefix is n bits.
func (d *Decoder) readLiteral(block []byte, n uint) (HeaderField, []byte, error) {
	nameIdx, rest, err := readInteger(block, n)
	if err != nil {
		return HeaderField{}, nil, err
	}
	var f HeaderField
	if nameIdx > 0 {
		e, ok := d.table.get(nameIdx)
		if !ok {
			return HeaderField{}, nil, fmt.Errorf("%w: literal name index %d", ErrInvalidIndex, nameIdx)
		}
		f.Name = e.Name
	} else {
		f.Name, rest, err = readString(rest, d.MaxStringLength)
		if err != nil {
			return HeaderField{}, nil, err
		}
	}
	f.Value, rest, err = readString(rest, d.MaxStringLength)
	if err != nil {
		return HeaderField{}, nil, err
	}
	return f, rest, nil
}

// DynamicTableSize returns the current dynamic-table size in RFC 7541
// §4.1 bytes. Invariant checkers compare it against the peer encoder's
// table after each header block.
func (d *Decoder) DynamicTableSize() int { return d.table.size }
