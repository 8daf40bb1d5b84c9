package tlsrec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
)

// Key-derivation labels, one per write direction, so the two directions
// never share a (key, nonce) pair.
const (
	labelClientWrite = "h2privacy client write"
	labelServerWrite = "h2privacy server write"
)

// halfConn is one direction's record protection: AES-128-GCM with a
// 4-byte implicit salt, and the sequence number carried on the wire as
// the 8-byte explicit nonce (TLS 1.2's GCM construction, RFC 5288). The
// nonce and additional-data arrays live here rather than on the stack
// because slices of locals escape through the cipher.AEAD interface and
// would cost an allocation each per record.
type halfConn struct {
	aead  cipher.AEAD
	seq   uint64
	nonce [12]byte // salt ‖ explicit sequence number
	ad    [13]byte // seq ‖ content type ‖ version ‖ plaintext length
}

// init keys the direction from SHA-256(label ‖ client random ‖ server
// random): bytes [0,16) are the AES-128 key, [16,20) the implicit salt.
func (h *halfConn) init(label string, clientRandom, serverRandom [32]byte) {
	var buf [128]byte // on the stack: a make sized by len(label) escapes
	in := append(buf[:0], label...)
	in = append(in, clientRandom[:]...)
	in = append(in, serverRandom[:]...)
	sum := sha256.Sum256(in)
	block, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic(err) // unreachable: the key is always 16 bytes
	}
	h.aead, err = cipher.NewGCM(block)
	if err != nil {
		panic(err) // unreachable: standard nonce and tag sizes
	}
	copy(h.nonce[:4], sum[16:20])
}

// prepare fills the nonce and additional data for record seq.
func (h *halfConn) prepare(seq uint64, ct ContentType, n int) {
	binary.BigEndian.PutUint64(h.nonce[4:], seq)
	binary.BigEndian.PutUint64(h.ad[:8], seq)
	h.ad[8] = byte(ct)
	binary.BigEndian.PutUint16(h.ad[9:11], version)
	binary.BigEndian.PutUint16(h.ad[11:13], uint16(n))
}

// seal encrypts buf[:n] in place and writes the tag to buf[n:n+TagSize].
func (h *halfConn) seal(seq uint64, ct ContentType, buf []byte, n int) {
	h.prepare(seq, ct, n)
	h.aead.Seal(buf[:0], h.nonce[:], buf[:n], h.ad[:])
}

// open authenticates and decrypts sealed (ciphertext ‖ tag) into dst[:0],
// returning the plaintext or ErrBadMAC.
func (h *halfConn) open(dst []byte, seq uint64, ct ContentType, sealed []byte) ([]byte, error) {
	h.prepare(seq, ct, len(sealed)-TagSize)
	pt, err := h.aead.Open(dst[:0], h.nonce[:], sealed, h.ad[:])
	if err != nil {
		return nil, ErrBadMAC
	}
	return pt, nil
}
