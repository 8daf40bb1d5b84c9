package h2

import (
	"bytes"
	"testing"

	"h2privacy/internal/check"
	"h2privacy/internal/hpack"
	"h2privacy/internal/instr"
)

// harvestFrames runs an in-process client/server exchange — with every h2
// invariant checker armed, so the corpus is known-legal traffic — and
// returns each emitted frame's wire bytes. Native fuzz targets seed their
// corpus from it: real HEADERS with HPACK-compressed fields, DATA with
// padding, SETTINGS, WINDOW_UPDATE, RST_STREAM, PUSH_PROMISE.
func harvestFrames(tb testing.TB) [][]byte {
	tb.Helper()
	rec := check.NewRecorder()
	ck := check.New(1, 0, rec)
	var frames [][]byte
	var toServer, toClient [][]byte
	client, err := NewConn(true, Config{TraceName: "client", EnablePush: true}, instr.Bundle{Check: ck},
		func(b []byte) {
			cp := append([]byte(nil), b...) // b is per-frame scratch
			frames = append(frames, cp)
			toServer = append(toServer, cp)
		})
	if err != nil {
		tb.Fatal(err)
	}
	server, err := NewConn(false, Config{TraceName: "server", PadData: func(int) int { return 16 }}, instr.Bundle{Check: ck},
		func(b []byte) {
			cp := append([]byte(nil), b...) // b is per-frame scratch
			frames = append(frames, cp)
			toClient = append(toClient, cp)
		})
	if err != nil {
		tb.Fatal(err)
	}
	pump := func() {
		for len(toServer) > 0 || len(toClient) > 0 {
			ts, tc := toServer, toClient
			toServer, toClient = nil, nil
			for _, b := range ts {
				_ = server.Feed(b)
			}
			for _, b := range tc {
				_ = client.Feed(b)
			}
		}
	}
	server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			_, _ = s.SendData(make([]byte, 3000), true)
		},
	})
	client.SetHandlers(Handlers{})
	client.Start()
	server.Start()
	pump()
	for _, path := range []string{"/quiz", "/static/emblem-green.png"} {
		s, err := client.OpenStream(getFields(path), true, PriorityParam{})
		if err != nil {
			tb.Fatal(err)
		}
		pump()
		_ = s
	}
	// One reset cycle so RST_STREAM frames land in the corpus.
	if s, err := client.OpenStream(getFields("/reset-me"), true, PriorityParam{}); err == nil {
		s.Reset(ErrCodeCancel)
		pump()
	}
	if rec.Total() != 0 {
		tb.Fatalf("harvest traffic violated invariants:\n%s", rec.Report())
	}
	if len(frames) == 0 {
		tb.Fatal("harvested no frames")
	}
	return frames
}

// FuzzConnFeed feeds arbitrary byte chunks to a started server
// connection: it must never panic, and a connection error must be sticky.
// The corpus seeds are real frames harvested from a check-armed exchange.
func FuzzConnFeed(f *testing.F) {
	for _, fr := range harvestFrames(f) {
		f.Add(fr)
	}
	f.Add([]byte(ClientPreface))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := NewConn(false, Config{}, instr.Bundle{}, func([]byte) {})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		if err := srv.Feed([]byte(ClientPreface)); err != nil {
			t.Fatal(err)
		}
		// Split the input into two chunks at a data-derived point so the
		// fuzzer also explores mid-frame boundaries.
		cut := 0
		if len(data) > 0 {
			cut = int(data[0]) % (len(data) + 1)
		}
		failed := srv.Feed(data[:cut]) != nil
		err = srv.Feed(data[cut:])
		if failed && err == nil {
			t.Fatal("connection error was not sticky")
		}
	})
}

// FuzzHpackRoundTrip decodes arbitrary bytes as an HPACK header block;
// when they decode, the fields must survive an encode→decode round trip
// exactly (name, value and sensitivity).
func FuzzHpackRoundTrip(f *testing.F) {
	// Seed with real header blocks: encode typical request/response field
	// sets at a few table sizes.
	enc := hpack.NewEncoder(hpack.DefaultDynamicTableSize)
	for _, path := range []string{"/", "/quiz", "/static/emblem-red.png"} {
		var block []byte
		for _, hf := range getFields(path) {
			block = enc.Encode(nil, []hpack.HeaderField{{Name: hf.Name, Value: hf.Value}})
			f.Add(block)
		}
	}
	f.Add(enc.Encode(nil, []hpack.HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "content-type", Value: "text/html"},
		{Name: "set-cookie", Value: "s=1", Sensitive: true},
	}))
	f.Fuzz(func(t *testing.T, block []byte) {
		dec := hpack.NewDecoder(hpack.DefaultDynamicTableSize)
		fields, err := dec.Decode(block)
		if err != nil {
			return // invalid blocks are fine; they just must not panic
		}
		enc2 := hpack.NewEncoder(hpack.DefaultDynamicTableSize)
		re := enc2.Encode(nil, fields)
		dec2 := hpack.NewDecoder(hpack.DefaultDynamicTableSize)
		fields2, err := dec2.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		if len(fields) != len(fields2) {
			t.Fatalf("round trip changed field count: %d -> %d", len(fields), len(fields2))
		}
		for i := range fields {
			if fields[i].Name != fields2[i].Name || fields[i].Value != fields2[i].Value ||
				fields[i].Sensitive != fields2[i].Sensitive {
				t.Fatalf("field %d changed: %+v -> %+v", i, fields[i], fields2[i])
			}
		}
	})
}

// TestHarvestedCorpusParses pins the harvest helper itself: every
// harvested chunk must be a parseable frame sequence.
func TestHarvestedCorpusParses(t *testing.T) {
	frames := harvestFrames(t)
	r := NewFrameReader()
	var buf bytes.Buffer
	for _, fr := range frames {
		buf.Write(fr)
	}
	// The client's first emission leads with the connection preface, which
	// is not a frame.
	stream := bytes.TrimPrefix(buf.Bytes(), []byte(ClientPreface))
	r.Feed(stream)
	n := 0
	for {
		fr, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		if fr == nil {
			break
		}
		n++
	}
	if n < 8 {
		t.Fatalf("harvested only %d frames", n)
	}
	t.Logf("harvested %d frames in %d chunks", n, len(frames))
}
