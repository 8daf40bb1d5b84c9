package tlsrec

import (
	"encoding/binary"
	"fmt"
)

// Handshake message types.
const (
	msgClientHello = 1
	msgServerHello = 2
)

// Conn is one endpoint of the record layer, sans-IO: bytes from the
// transport are pushed in with Feed, bytes for the transport come out
// through the output callback, and decrypted records surface through
// OnRecord. The same Conn type backs both the event-driven simulation and
// the goroutine-based h2sync transport.
type Conn struct {
	isClient    bool
	established bool
	failed      error

	localRandom [32]byte
	peerRandom  [32]byte
	send, recv  halfConn // keyed at establish, one key per direction

	buf    []byte // transport bytes; [off:] is still unparsed
	off    int    // parsed prefix of buf, reclaimed on the next Feed
	output func([]byte)

	// Per-record scratch, reused across seal/decrypt calls. Safe because
	// every consumer of the emitted slices copies before returning (the
	// sim's tcp.Write, h2sync's outQueue, and the h1/h2 Feed parsers all
	// append into their own buffers).
	sealBuf []byte // sealed record body handed to output
	ptBuf   []byte // decrypted plaintext handed to onRecord

	onRecord      func(ContentType, []byte)
	onEstablished func()
}

// NewConn creates an endpoint. random seeds the handshake (pass distinct
// deterministic values per endpoint); output transmits wire bytes and must
// be non-nil. The slice passed to output (and to OnRecord) is scratch the
// Conn reuses for the next record: consumers that keep the bytes past the
// callback must copy them.
func NewConn(isClient bool, random [32]byte, output func([]byte)) *Conn {
	if output == nil {
		panic("tlsrec: NewConn requires an output function")
	}
	return &Conn{isClient: isClient, localRandom: random, output: output}
}

// OnRecord registers the callback for decrypted application/alert records.
// The plaintext slice is scratch reused for the next record; copy to keep.
func (c *Conn) OnRecord(fn func(ContentType, []byte)) { c.onRecord = fn }

// OnEstablished registers a callback fired once the handshake completes.
func (c *Conn) OnEstablished(fn func()) { c.onEstablished = fn }

// Established reports whether application data may flow.
func (c *Conn) Established() bool { return c.established }

// Err returns the first fatal record-layer error, or nil.
func (c *Conn) Err() error { return c.failed }

// Start begins the handshake. Only the client sends proactively.
func (c *Conn) Start() {
	if c.isClient && !c.established && c.failed == nil {
		c.sendHandshake(msgClientHello)
	}
}

// Send seals plaintext into one or more records (splitting at
// MaxPlaintext) and emits the wire bytes. It fails before the handshake
// completes; the HTTP layers queue writes until OnEstablished.
func (c *Conn) Send(ct ContentType, plaintext []byte) error {
	if c.failed != nil {
		return c.failed
	}
	if !c.established {
		return ErrNotEstablished
	}
	for len(plaintext) > 0 {
		n := len(plaintext)
		if n > MaxPlaintext {
			n = MaxPlaintext
		}
		c.seal(ct, plaintext[:n])
		plaintext = plaintext[n:]
	}
	return nil
}

// seal encrypts one record and emits it. The emitted slice is scratch
// reused by the next seal; output consumers copy what they keep.
func (c *Conn) seal(ct ContentType, plaintext []byte) {
	seq := c.send.seq
	c.send.seq++
	total := HeaderSize + 8 + len(plaintext) + TagSize
	if cap(c.sealBuf) < total {
		c.sealBuf = make([]byte, total)
	}
	body := c.sealBuf[:total]
	putHeader(body, ct, 8+len(plaintext)+TagSize)
	binary.BigEndian.PutUint64(body[HeaderSize:], seq)
	sealed := body[HeaderSize+8:]
	copy(sealed, plaintext)
	c.send.seal(seq, ct, sealed, len(plaintext))
	c.output(body)
}

// Feed consumes bytes from the transport, parsing as many complete records
// as are available. The first fatal error poisons the connection.
func (c *Conn) Feed(b []byte) error {
	if c.failed != nil {
		return c.failed
	}
	// Reclaim the parsed prefix before appending. Reslicing forward after
	// each record would strand the consumed capacity and force a fresh
	// backing array every time the buffer cycles; compacting keeps one
	// steady-state allocation for the connection's lifetime.
	if c.off > 0 {
		n := copy(c.buf, c.buf[c.off:])
		c.buf = c.buf[:n]
		c.off = 0
	}
	c.buf = append(c.buf, b...)
	for {
		rest := c.buf[c.off:]
		hdr, ok := ParseHeader(rest)
		if !ok {
			return nil
		}
		if HeaderSize+hdr.Length > maxRecordWire {
			return c.fail(fmt.Errorf("%w: wire length %d", ErrRecordTooLarge, hdr.Length))
		}
		if len(rest) < HeaderSize+hdr.Length {
			return nil // incomplete record
		}
		body := rest[HeaderSize : HeaderSize+hdr.Length]
		c.off += HeaderSize + hdr.Length
		if err := c.processRecord(hdr.Type, body); err != nil {
			return c.fail(err)
		}
	}
}

func (c *Conn) fail(err error) error {
	if c.failed == nil {
		c.failed = err
	}
	return c.failed
}

func (c *Conn) processRecord(ct ContentType, body []byte) error {
	if ct == ContentHandshake {
		return c.processHandshake(body)
	}
	if !c.established {
		return ErrNotEstablished
	}
	if len(body) < 8+TagSize {
		return fmt.Errorf("tlsrec: sealed record too short (%d bytes)", len(body))
	}
	seq := binary.BigEndian.Uint64(body)
	sealed := body[8:]
	if n := len(sealed) - TagSize; cap(c.ptBuf) < n {
		c.ptBuf = make([]byte, n)
	}
	plaintext, err := c.recv.open(c.ptBuf, seq, ct, sealed)
	if err != nil {
		return err
	}
	if seq != c.recv.seq {
		return fmt.Errorf("tlsrec: record sequence %d, want %d (transport reordered or lost data)", seq, c.recv.seq)
	}
	c.recv.seq++
	if c.onRecord != nil {
		c.onRecord(ct, plaintext)
	}
	return nil
}

func (c *Conn) processHandshake(body []byte) error {
	if len(body) != 1+32 {
		return ErrBadHandshake
	}
	msg := body[0]
	copy(c.peerRandom[:], body[1:])
	switch {
	case msg == msgClientHello && !c.isClient:
		c.sendHandshake(msgServerHello)
		c.establish()
	case msg == msgServerHello && c.isClient:
		c.establish()
	default:
		return fmt.Errorf("%w: unexpected message %d", ErrBadHandshake, msg)
	}
	return nil
}

func (c *Conn) establish() {
	cr, sr := c.localRandom, c.peerRandom
	sendLabel, recvLabel := labelClientWrite, labelServerWrite
	if !c.isClient {
		cr, sr = sr, cr
		sendLabel, recvLabel = recvLabel, sendLabel
	}
	c.send.init(sendLabel, cr, sr)
	c.recv.init(recvLabel, cr, sr)
	c.established = true
	if c.onEstablished != nil {
		c.onEstablished()
	}
}

func (c *Conn) sendHandshake(msg byte) {
	body := make([]byte, HeaderSize+1+32)
	putHeader(body, ContentHandshake, 1+32)
	body[HeaderSize] = msg
	copy(body[HeaderSize+1:], c.localRandom[:])
	c.output(body)
}
