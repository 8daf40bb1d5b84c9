package tlsrec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// pipePair wires two Conns directly: client output feeds server and vice
// versa (synchronously, like a lossless transport).
func pipePair() (*Conn, *Conn) {
	var client, server *Conn
	var cr, sr [32]byte
	for i := range cr {
		cr[i] = byte(i)
		sr[i] = byte(i * 3)
	}
	client = NewConn(true, cr, func(b []byte) {
		if server != nil {
			_ = server.Feed(b)
		}
	})
	server = NewConn(false, sr, func(b []byte) {
		if client != nil {
			_ = client.Feed(b)
		}
	})
	return client, server
}

func TestHandshakeEstablishes(t *testing.T) {
	client, server := pipePair()
	var cliUp, srvUp bool
	client.OnEstablished(func() { cliUp = true })
	server.OnEstablished(func() { srvUp = true })
	client.Start()
	if !client.Established() || !server.Established() {
		t.Fatalf("established: client=%t server=%t", client.Established(), server.Established())
	}
	if !cliUp || !srvUp {
		t.Fatal("OnEstablished callbacks not fired")
	}
}

func TestRoundTripBothDirections(t *testing.T) {
	client, server := pipePair()
	var atServer, atClient bytes.Buffer
	server.OnRecord(func(ct ContentType, p []byte) {
		if ct == ContentApplicationData {
			atServer.Write(p)
		}
	})
	client.OnRecord(func(ct ContentType, p []byte) {
		if ct == ContentApplicationData {
			atClient.Write(p)
		}
	})
	client.Start()
	if err := client.Send(ContentApplicationData, []byte("GET /quiz HTTP/2")); err != nil {
		t.Fatal(err)
	}
	if err := server.Send(ContentApplicationData, bytes.Repeat([]byte("r"), 9500)); err != nil {
		t.Fatal(err)
	}
	if atServer.String() != "GET /quiz HTTP/2" {
		t.Fatalf("server got %q", atServer.String())
	}
	if atClient.Len() != 9500 {
		t.Fatalf("client got %d bytes", atClient.Len())
	}
}

func TestSendBeforeHandshakeFails(t *testing.T) {
	client, _ := pipePair()
	if err := client.Send(ContentApplicationData, []byte("x")); !errors.Is(err, ErrNotEstablished) {
		t.Fatalf("err = %v, want ErrNotEstablished", err)
	}
}

func TestLargePayloadSplitsRecords(t *testing.T) {
	var wire [][]byte
	var cr, sr [32]byte
	// The output slice is seal scratch, so keep a copy of each record.
	client := NewConn(true, cr, func(b []byte) { wire = append(wire, append([]byte(nil), b...)) })
	server := NewConn(false, sr, func(b []byte) { _ = client.Feed(b) })
	client.Start()
	_ = server.Feed(wire[0])
	wire = nil
	payload := make([]byte, MaxPlaintext*2+100)
	if err := client.Send(ContentApplicationData, payload); err != nil {
		t.Fatal(err)
	}
	if len(wire) != 3 {
		t.Fatalf("sent %d records, want 3", len(wire))
	}
	hdr, _ := ParseHeader(wire[0])
	if hdr.Length != MaxPlaintext+SealOverhead {
		t.Fatalf("first record length %d, want %d", hdr.Length, MaxPlaintext+SealOverhead)
	}
}

func TestSizeFaithfulness(t *testing.T) {
	// A sealed record must be exactly plaintext + header + SealOverhead:
	// the attack's size side-channel depends on it.
	var out []byte
	var cr, sr [32]byte
	client := NewConn(true, cr, func(b []byte) { out = b })
	server := NewConn(false, sr, func(b []byte) { _ = client.Feed(b) })
	client.Start()
	_ = server.Feed(out) // deliver ClientHello; ServerHello flows back
	out = nil
	if err := client.Send(ContentApplicationData, make([]byte, 1234)); err != nil {
		t.Fatal(err)
	}
	if len(out) != HeaderSize+1234+SealOverhead {
		t.Fatalf("wire size = %d, want %d", len(out), HeaderSize+1234+SealOverhead)
	}
}

func TestHeaderVisibleOnWire(t *testing.T) {
	var out []byte
	var cr, sr [32]byte
	client := NewConn(true, cr, func(b []byte) { out = b })
	server := NewConn(false, sr, func(b []byte) { _ = client.Feed(b) })
	client.Start()
	_ = server.Feed(out)
	out = nil
	_ = client.Send(ContentApplicationData, []byte("secret"))
	hdr, ok := ParseHeader(out)
	if !ok || hdr.Type != ContentApplicationData {
		t.Fatalf("header = %+v ok=%t", hdr, ok)
	}
	if bytes.Contains(out, []byte("secret")) {
		t.Fatal("plaintext leaked onto the wire")
	}
}

func TestFragmentedFeed(t *testing.T) {
	// Deliver wire bytes one at a time: the parser must reassemble.
	var wire bytes.Buffer
	var cr, sr [32]byte
	client := NewConn(true, cr, func(b []byte) { wire.Write(b) })
	server := NewConn(false, sr, func(b []byte) { _ = client.Feed(b) })
	var got bytes.Buffer
	server.OnRecord(func(ct ContentType, p []byte) { got.Write(p) })
	client.Start()
	feedAll := func() {
		for _, b := range wire.Bytes() {
			if err := server.Feed([]byte{b}); err != nil {
				t.Fatal(err)
			}
		}
		wire.Reset()
	}
	feedAll()
	_ = client.Send(ContentApplicationData, []byte("hello world"))
	feedAll()
	if got.String() != "hello world" {
		t.Fatalf("got %q", got.String())
	}
}

func TestTamperedRecordRejected(t *testing.T) {
	var wire []byte
	var cr, sr [32]byte
	var server *Conn
	client := NewConn(true, cr, func(b []byte) { wire = b })
	server = NewConn(false, sr, func(b []byte) { _ = client.Feed(b) })
	client.Start()
	_ = server.Feed(wire)
	_ = client.Send(ContentApplicationData, []byte("payload"))
	wire[HeaderSize+9] ^= 0xff // flip a ciphertext bit
	if err := server.Feed(wire); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("err = %v, want ErrBadMAC", err)
	}
	// Poisoned connection rejects everything afterwards.
	if err := server.Feed([]byte{}); err == nil {
		t.Fatal("poisoned connection accepted more data")
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	var cr [32]byte
	c := NewConn(false, cr, func([]byte) {})
	hdr := make([]byte, HeaderSize)
	hdr[0] = byte(ContentApplicationData)
	hdr[3] = 0xff
	hdr[4] = 0xff
	if err := c.Feed(hdr); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestAppDataBeforeHandshakeRejected(t *testing.T) {
	var cr, sr [32]byte
	// Establish only the client side, then replay its app record into a
	// fresh (un-handshaken) server.
	var wire []byte
	client := NewConn(true, cr, func(b []byte) { wire = b })
	helper := NewConn(false, sr, func(b []byte) { _ = client.Feed(b) })
	client.Start()
	_ = helper.Feed(wire)
	_ = client.Send(ContentApplicationData, []byte("x"))
	fresh := NewConn(false, sr, func([]byte) {})
	if err := fresh.Feed(wire); !errors.Is(err, ErrNotEstablished) {
		t.Fatalf("err = %v, want ErrNotEstablished", err)
	}
}

func TestUnexpectedHandshakeMessage(t *testing.T) {
	var cr [32]byte
	// A client receiving a ClientHello is a protocol violation.
	c := NewConn(true, cr, func([]byte) {})
	body := make([]byte, HeaderSize+33)
	putHeader(body, ContentHandshake, 33)
	body[HeaderSize] = msgClientHello
	if err := c.Feed(body); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

func TestContentTypeString(t *testing.T) {
	if ContentApplicationData.String() != "application-data" ||
		ContentHandshake.String() != "handshake" ||
		ContentAlert.String() != "alert" ||
		ContentType(99).String() != "content-type-99" {
		t.Fatal("ContentType.String broken")
	}
}

// Property: any payload round-trips exactly, and the wire never contains
// the plaintext when the plaintext is non-trivial.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		client, server := pipePair()
		var got [][]byte
		server.OnRecord(func(ct ContentType, p []byte) {
			cp := make([]byte, len(p))
			copy(cp, p)
			got = append(got, cp)
		})
		client.Start()
		var want []byte
		for _, p := range payloads {
			if len(p) == 0 {
				continue
			}
			want = append(want, p...)
			if err := client.Send(ContentApplicationData, p); err != nil {
				return false
			}
		}
		var all []byte
		for _, g := range got {
			all = append(all, g...)
		}
		return bytes.Equal(all, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestManyRecordsSequence(t *testing.T) {
	client, server := pipePair()
	var count, total int
	server.OnRecord(func(ct ContentType, p []byte) {
		count++
		total += len(p)
	})
	client.Start()
	sent := 0
	for i := 1; i <= 500; i++ {
		n := (i*37)%4096 + 1
		if err := client.Send(ContentApplicationData, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	if count != 500 || total != sent {
		t.Fatalf("received %d records / %d bytes, want 500 / %d", count, total, sent)
	}
}

func TestAlertContentTypePasses(t *testing.T) {
	client, server := pipePair()
	var gotCT ContentType
	server.OnRecord(func(ct ContentType, p []byte) { gotCT = ct })
	client.Start()
	if err := client.Send(ContentAlert, []byte{1, 0}); err != nil {
		t.Fatal(err)
	}
	if gotCT != ContentAlert {
		t.Fatalf("content type = %v", gotCT)
	}
}

// establishedPair returns a handshaken client and server whose outputs are
// captured (copied) into the returned slices instead of being delivered,
// so a test can tamper with, reorder or misroute records.
func establishedPair(t testing.TB) (client, server *Conn, toServer, toClient *[][]byte) {
	t.Helper()
	var c2s, s2c [][]byte
	var cr, sr [32]byte
	for i := range cr {
		cr[i] = byte(i)
		sr[i] = byte(i * 3)
	}
	client = NewConn(true, cr, func(b []byte) { c2s = append(c2s, append([]byte(nil), b...)) })
	server = NewConn(false, sr, func(b []byte) { s2c = append(s2c, append([]byte(nil), b...)) })
	client.Start()
	if err := server.Feed(c2s[0]); err != nil {
		t.Fatal(err)
	}
	if err := client.Feed(s2c[0]); err != nil {
		t.Fatal(err)
	}
	if !client.Established() || !server.Established() {
		t.Fatal("handshake did not complete")
	}
	c2s, s2c = nil, nil
	return client, server, &c2s, &s2c
}

func TestContentTypeBoundByTag(t *testing.T) {
	// The header's content type is in the clear but bound into the
	// additional data: relabelling application data as an alert must
	// fail authentication.
	client, server, toServer, _ := establishedPair(t)
	if err := client.Send(ContentApplicationData, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	rec := (*toServer)[0]
	rec[0] = byte(ContentAlert)
	if err := server.Feed(rec); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("err = %v, want ErrBadMAC", err)
	}
}

func TestDirectionsUseDistinctKeys(t *testing.T) {
	// The same sequence number and plaintext must seal differently in the
	// two directions; a shared key would be a two-time pad.
	client, server, toServer, toClient := establishedPair(t)
	msg := []byte("identical plaintext in both directions")
	if err := client.Send(ContentApplicationData, msg); err != nil {
		t.Fatal(err)
	}
	if err := server.Send(ContentApplicationData, msg); err != nil {
		t.Fatal(err)
	}
	c2s, s2c := (*toServer)[0], (*toClient)[0]
	if !bytes.Equal(c2s[:HeaderSize+8], s2c[:HeaderSize+8]) {
		t.Fatal("header or explicit sequence number differ; test premise broken")
	}
	ct := HeaderSize + 8
	if bytes.Equal(c2s[ct:ct+len(msg)], s2c[ct:ct+len(msg)]) {
		t.Fatal("client→server and server→client ciphertexts are identical: the directions share a keystream")
	}
}

func TestReflectedRecordRejected(t *testing.T) {
	// A record fed back into its own sender must not authenticate: the
	// sender opens with the peer's write key.
	client, _, toServer, _ := establishedPair(t)
	if err := client.Send(ContentApplicationData, []byte("echo")); err != nil {
		t.Fatal(err)
	}
	if err := client.Feed((*toServer)[0]); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("err = %v, want ErrBadMAC", err)
	}
}

func TestReorderedRecordRejected(t *testing.T) {
	// Authentic records delivered out of order pass the tag check but
	// fail the sequence check.
	client, server, toServer, _ := establishedPair(t)
	for _, m := range []string{"first", "second"} {
		if err := client.Send(ContentApplicationData, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	err := server.Feed((*toServer)[1])
	if err == nil || errors.Is(err, ErrBadMAC) {
		t.Fatalf("err = %v, want a sequence error", err)
	}
}

func TestSteadySendFeedZeroAllocs(t *testing.T) {
	client, server := pipePair()
	var got int
	server.OnRecord(func(_ ContentType, p []byte) { got += len(p) })
	client.Start()
	payload := make([]byte, 1200)
	// Warm the scratch buffers to their steady-state size.
	if err := client.Send(ContentApplicationData, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := client.Send(ContentApplicationData, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady Send+Feed allocates %.1f times per record, want 0", allocs)
	}
	if got != 202*len(payload) {
		t.Fatalf("server received %d bytes, want %d", got, 202*len(payload))
	}
}

// FuzzRecordFeed pushes arbitrary bytes into an established Conn: any
// input may be rejected, none may panic, and a poisoned Conn stays
// poisoned.
func FuzzRecordFeed(f *testing.F) {
	client, _, toServer, _ := establishedPair(f)
	for _, p := range [][]byte{nil, []byte("x"), make([]byte, 300)} {
		if err := client.Send(ContentApplicationData, p); err != nil && len(p) > 0 {
			f.Fatal(err)
		}
	}
	for _, rec := range *toServer {
		f.Add(rec)
	}
	f.Add([]byte{byte(ContentApplicationData), 3, 3, 0, 24})
	f.Add([]byte{byte(ContentHandshake), 3, 3, 0, 33, msgServerHello})
	f.Add([]byte{byte(ContentApplicationData), 3, 3, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, server, _, _ := establishedPair(t)
		server.OnRecord(func(ContentType, []byte) {})
		// Split the input in two to exercise reassembly across Feeds.
		mid := len(data) / 2
		err1 := server.Feed(data[:mid])
		err2 := server.Feed(data[mid:])
		if err1 != nil && err2 == nil {
			t.Fatalf("poisoned Conn accepted more data after %v", err1)
		}
	})
}
