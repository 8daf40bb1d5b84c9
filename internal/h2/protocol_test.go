package h2

import (
	"strings"
	"testing"
)

// --- protocol robustness: hostile or odd frame sequences ---

func TestHPACKContinuityAcrossResetStreams(t *testing.T) {
	// Response headers for a stream the client already reset must still
	// feed the HPACK decoder, or the dynamic tables desynchronize. This
	// regression test reproduces the bug found during the attack runs.
	w := newWirePair(t, Config{}, Config{})
	responses := map[uint32][]HeaderField{}
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			// Respond with a unique custom header so the dynamic table
			// keeps growing.
			path := fieldValue(fields, ":path")
			_ = s.SendHeaders([]HeaderField{
				{Name: ":status", Value: "200"},
				{Name: "x-resp", Value: "value-for-" + path},
			}, true)
		},
		OnStreamReset: func(s *Stream, code ErrCode, remote bool) {},
	})
	w.client.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			responses[s.ID()] = append([]HeaderField(nil), fields...)
		},
		OnStreamReset: func(s *Stream, code ErrCode, remote bool) {},
	})
	w.start()
	// Open a stream, pump only the request to the server, then reset it
	// client-side so the response headers arrive for a closed stream.
	s1, _ := w.client.OpenStream(getFields("/a"), true, PriorityParam{})
	w.pump()
	_ = s1
	s2, _ := w.client.OpenStream(getFields("/b"), true, PriorityParam{})
	s2.Reset(ErrCodeCancel) // reset before the response arrives
	w.pump()
	// More streams must decode fine — the dynamic table stayed in sync.
	for i := 0; i < 5; i++ {
		s, err := w.client.OpenStream(getFields("/c"), true, PriorityParam{})
		if err != nil {
			t.Fatal(err)
		}
		w.pump()
		got := fieldValue(responses[s.ID()], "x-resp")
		if got != "value-for-/c" {
			t.Fatalf("stream %d decoded %q", s.ID(), got)
		}
	}
	if w.client.Err() != nil || w.server.Err() != nil {
		t.Fatalf("errors: %v / %v", w.client.Err(), w.server.Err())
	}
}

func TestRefusedStreamKeepsHPACKSync(t *testing.T) {
	w := newWirePair(t, Config{}, Config{MaxConcurrentStreams: 1})
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			// Hold the stream open so the second gets refused.
		},
	})
	var refused, ok int
	w.client.SetHandlers(Handlers{
		OnStreamReset: func(s *Stream, code ErrCode, remote bool) {
			if code == ErrCodeRefusedStream {
				refused++
			}
		},
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) { ok++ },
	})
	w.start()
	// Each request carries a fresh header that enters the dynamic table.
	for i := 0; i < 4; i++ {
		fields := append(getFields("/r"), HeaderField{Name: "x-var", Value: strings.Repeat("v", i+1)})
		_, _ = w.client.OpenStream(fields, true, PriorityParam{})
		w.pump()
	}
	if refused != 3 {
		t.Fatalf("refused = %d, want 3", refused)
	}
	if w.server.Err() != nil {
		t.Fatalf("server HPACK desync: %v", w.server.Err())
	}
}

func TestWindowUpdateZeroOnStreamResetsIt(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var resetCode ErrCode
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {},
		OnStreamReset:   func(s *Stream, code ErrCode, remote bool) { resetCode = code },
	})
	w.start()
	s, _ := w.client.OpenStream(getFields("/w0"), true, PriorityParam{})
	w.pump()
	// Handcraft a zero-increment WINDOW_UPDATE on the stream.
	if err := w.server.Feed(AppendWindowUpdate(nil, s.ID(), 0)); err != nil {
		t.Fatalf("conn killed: %v", err)
	}
	w.pump()
	if resetCode != ErrCodeProtocol {
		t.Fatalf("stream reset code = %v", resetCode)
	}
}

func TestWindowUpdateZeroOnConnIsFatal(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	if err := w.server.Feed(AppendWindowUpdate(nil, 0, 0)); err == nil {
		t.Fatal("zero connection window update accepted")
	}
}

func TestConnWindowOverflowIsFatal(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	if err := w.server.Feed(AppendWindowUpdate(nil, 0, maxWindow)); err == nil {
		t.Fatal("connection window overflow accepted")
	}
}

func TestInterleavedContinuationIsFatal(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	// HEADERS without END_HEADERS followed by a PING.
	raw := AppendHeaders(nil, 1, []byte{0x82}, false, false, PriorityParam{})
	raw = AppendPing(raw, false, [8]byte{})
	if err := w.server.Feed(raw); err == nil {
		t.Fatal("interleaved CONTINUATION sequence accepted")
	}
}

func TestUnexpectedContinuationIsFatal(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	if err := w.server.Feed(AppendContinuation(nil, 1, []byte{0x82}, true)); err == nil {
		t.Fatal("stray CONTINUATION accepted")
	}
}

func TestEvenStreamIDFromClientIsFatal(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	if err := w.server.Feed(AppendHeaders(nil, 2, []byte{0x82}, true, true, PriorityParam{})); err == nil {
		t.Fatal("even client stream id accepted")
	}
}

func TestNonMonotonicStreamIDIsFatal(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {},
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/a"), true, PriorityParam{})
	_, _ = w.client.OpenStream(getFields("/b"), true, PriorityParam{})
	w.pump()
	// Handcraft HEADERS for stream 1 (already seen, never reset) — the
	// id is not monotonically increasing and the stream isn't closed.
	// Stream 1 is open on the server (no response yet), so this is
	// actually trailers; use stream id 7 then 3 instead.
	raw := AppendHeaders(nil, 7, []byte{0x82, 0x84, 0x86, 0x87}, true, true, PriorityParam{})
	if err := w.server.Feed(raw); err != nil {
		t.Fatalf("stream 7: %v", err)
	}
	if err := w.server.Feed(AppendHeaders(nil, 5, []byte{0x82, 0x84, 0x86, 0x87}, true, true, PriorityParam{})); err == nil {
		t.Fatal("non-monotonic new stream id accepted")
	}
}

func TestSettingsInvalidValuesFatal(t *testing.T) {
	cases := map[string][]Setting{
		"push=2":          {{SettingEnablePush, 2}},
		"window overflow": {{SettingInitialWindowSize, 1 << 31}},
		"frame too small": {{SettingMaxFrameSize, 100}},
		"frame too big":   {{SettingMaxFrameSize, 1 << 30}},
	}
	for name, settings := range cases {
		w := newWirePair(t, Config{}, Config{})
		w.start()
		if err := w.server.Feed(AppendSettings(nil, settings)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestUnknownSettingIgnored(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	if err := w.server.Feed(AppendSettings(nil, []Setting{{SettingID(0x99), 1234}})); err != nil {
		t.Fatalf("unknown setting killed the connection: %v", err)
	}
}

func TestRSTStreamOnIdleIsFatal(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	if err := w.server.Feed(AppendRSTStream(nil, 9, ErrCodeCancel)); err == nil {
		t.Fatal("RST on idle stream accepted")
	}
}

func TestRSTStreamOnClosedIsIgnored(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, true)
		},
	})
	w.start()
	s, _ := w.client.OpenStream(getFields("/done"), true, PriorityParam{})
	w.pump()
	if err := w.server.Feed(AppendRSTStream(nil, s.ID(), ErrCodeCancel)); err != nil {
		t.Fatalf("late RST killed the connection: %v", err)
	}
}

func TestTrailersDelivered(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var headerEvents int
	var lastFields []HeaderField
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			_, _ = s.SendData([]byte("body"), false)
			_ = s.SendHeaders([]HeaderField{{Name: "grpc-status", Value: "0"}}, true)
		},
	})
	w.client.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			headerEvents++
			lastFields = append([]HeaderField(nil), fields...)
		},
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/trailers"), true, PriorityParam{})
	w.pump()
	if headerEvents != 2 {
		t.Fatalf("header events = %d, want 2 (headers + trailers)", headerEvents)
	}
	if fieldValue(lastFields, "grpc-status") != "0" {
		t.Fatalf("trailers = %+v", lastFields)
	}
}

func TestPriorityFrameUpdatesStream(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var srv *Stream
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) { srv = s },
	})
	w.start()
	s, _ := w.client.OpenStream(getFields("/p"), true, PriorityParam{})
	w.pump()
	s.SendPriority(PriorityParam{StreamDep: 0, Weight: 255})
	w.pump()
	if srv.Priority().Weight != 255 {
		t.Fatalf("weight = %d", srv.Priority().Weight)
	}
}

func TestEmptyDataEndStream(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var closed bool
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "204"}}, false)
			_, _ = s.SendData(nil, true) // bare END_STREAM
		},
	})
	w.client.SetHandlers(Handlers{
		OnStreamClosed: func(s *Stream) { closed = true },
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/empty"), true, PriorityParam{})
	w.pump()
	if !closed {
		t.Fatal("bare END_STREAM did not close the stream")
	}
}

func TestGoAwayDuringActiveStreamsDeliversData(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var got int
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			w.server.GoAway(ErrCodeNo, []byte("draining"))
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			_, _ = s.SendData(make([]byte, 2000), true)
		},
	})
	w.client.SetHandlers(Handlers{
		OnStreamData: func(s *Stream, data []byte, endStream bool) { got += len(data) },
		OnGoAway:     func(uint32, ErrCode, []byte) {},
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/drain"), true, PriorityParam{})
	w.pump()
	if got != 2000 {
		t.Fatalf("in-flight stream data lost during GOAWAY: %d", got)
	}
}

func TestStreamStateTransitions(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var srv *Stream
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) { srv = s },
	})
	w.start()
	s, _ := w.client.OpenStream(getFields("/st"), true, PriorityParam{})
	if s.State() != StreamHalfClosedLocal {
		t.Fatalf("client stream after END_STREAM request = %v", s.State())
	}
	w.pump()
	if srv.State() != StreamHalfClosedRemote {
		t.Fatalf("server stream = %v", srv.State())
	}
	_ = srv.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, true)
	if srv.State() != StreamClosed {
		t.Fatalf("server stream after response = %v", srv.State())
	}
	w.pump()
	if s.State() != StreamClosed {
		t.Fatalf("client stream after response = %v", s.State())
	}
}

func TestSendOnClosedStreamErrors(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, true)
			if _, err := s.SendData([]byte("late"), false); err == nil {
				t.Error("SendData on closed stream succeeded")
			}
			if err := s.SendHeaders([]HeaderField{{Name: "x", Value: "y"}}, false); err == nil {
				t.Error("SendHeaders on closed stream succeeded")
			}
		},
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/closed"), true, PriorityParam{})
	w.pump()
}

func TestOpenStreamAfterFatalErrorFails(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	// Kill the client with a malformed frame.
	_ = w.client.Feed(AppendData(nil, 0, []byte("x"), false, 0))
	if w.client.Err() == nil {
		t.Fatal("client survived DATA on stream 0")
	}
	if _, err := w.client.OpenStream(getFields("/x"), true, PriorityParam{}); err == nil {
		t.Fatal("OpenStream on failed connection succeeded")
	}
}

func TestHuffmanHeadersInterop(t *testing.T) {
	w := newWirePair(t, Config{HuffmanHeaders: true}, Config{})
	var gotPath string
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			gotPath = fieldValue(fields, ":path")
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, true)
		},
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/huffman/coded/path"), true, PriorityParam{})
	w.pump()
	if gotPath != "/huffman/coded/path" {
		t.Fatalf("path = %q", gotPath)
	}
	if w.client.Err() != nil || w.server.Err() != nil {
		t.Fatalf("errors: %v / %v", w.client.Err(), w.server.Err())
	}
}
