// Package tlsrec implements a TLS-like record layer: framing, a 1-RTT
// handshake, and size-faithful sealing of application data.
//
// Records are sealed with AES-128-GCM exactly as TLS 1.2 does it (RFC
// 5288): a per-direction key and 4-byte implicit salt, the sequence number
// sent as the 8-byte explicit nonce, and the sequence number, content type,
// version and plaintext length bound as additional data. The handshake is
// NOT secure and must never protect real traffic: it exchanges the key
// inputs (two hello randoms) in the clear. What the package is faithful to
// — and all the paper's adversary ever uses — is the on-the-wire shape of
// TLS 1.2: a 5-byte plaintext record header carrying the content type (the
// attack filters on `ssl.record.content_type==23`, §IV-D) and a length, a
// constant 24-byte per-record overhead (8-byte explicit nonce + 16-byte
// tag), and opaque payload bytes. Every record is authenticated, which
// doubles as an end-to-end corruption check on the simulated transport
// beneath it.
package tlsrec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ContentType is the TLS record content type, visible on the wire.
type ContentType uint8

// Record content types (same values as TLS).
const (
	ContentAlert           ContentType = 21
	ContentHandshake       ContentType = 22
	ContentApplicationData ContentType = 23
)

// String names the content type as in packet dissectors.
func (ct ContentType) String() string {
	switch ct {
	case ContentAlert:
		return "alert"
	case ContentHandshake:
		return "handshake"
	case ContentApplicationData:
		return "application-data"
	default:
		return fmt.Sprintf("content-type-%d", uint8(ct))
	}
}

// Wire-format constants.
const (
	// HeaderSize is the plaintext record header: type(1) version(2) length(2).
	HeaderSize = 5
	// SealOverhead is the per-record ciphertext expansion: an 8-byte
	// explicit sequence number plus a 16-byte authentication tag.
	SealOverhead = 8 + TagSize
	// TagSize is the GCM authentication tag length.
	TagSize = 16
	// MaxPlaintext is the largest plaintext a single record may carry
	// (TLS's 2^14).
	MaxPlaintext = 16384
	// version is the wire version field (TLS 1.2's 0x0303).
	version = 0x0303
)

// Record errors.
var (
	ErrRecordTooLarge = errors.New("tlsrec: record exceeds maximum size")
	ErrBadMAC         = errors.New("tlsrec: record authentication failed")
	ErrBadHandshake   = errors.New("tlsrec: malformed handshake message")
	ErrNotEstablished = errors.New("tlsrec: application data before handshake completion")
	ErrClosed         = errors.New("tlsrec: connection closed")
)

// Header is a parsed record header. On-path observers (the capture
// monitor) can always read it, because TLS leaves it in the clear.
type Header struct {
	Type   ContentType
	Length int // bytes following the header
}

// ParseHeader decodes a record header from the first HeaderSize bytes of b.
// It returns false when b is too short. The version field is not checked:
// middleboxes (and our monitor) tolerate any version.
func ParseHeader(b []byte) (Header, bool) {
	if len(b) < HeaderSize {
		return Header{}, false
	}
	return Header{
		Type:   ContentType(b[0]),
		Length: int(binary.BigEndian.Uint16(b[3:5])),
	}, true
}

func putHeader(dst []byte, ct ContentType, length int) {
	dst[0] = byte(ct)
	binary.BigEndian.PutUint16(dst[1:3], version)
	binary.BigEndian.PutUint16(dst[3:5], uint16(length))
}

// maxRecordWire is the largest legal record on the wire (header + sealed
// maximum plaintext). Used to reject corrupt/hostile lengths early.
const maxRecordWire = HeaderSize + MaxPlaintext + SealOverhead + 64
