package h2

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"h2privacy/internal/instr"
)

// wirePair connects two Conns back-to-back through byte queues that the
// test pumps explicitly (so in-flight bytes can be inspected or withheld).
type wirePair struct {
	t              *testing.T
	client, server *Conn
	toServer       [][]byte
	toClient       [][]byte
	// sniffClient, when set, observes each server→client chunk during pump.
	sniffClient func([]byte)
}

func newWirePair(t *testing.T, clientCfg, serverCfg Config) *wirePair {
	t.Helper()
	w := &wirePair{t: t}
	var err error
	// The emitted slice is scratch the Conn reuses per frame; queueing it
	// for a later pump means copying, like the real transports do.
	w.client, err = NewConn(true, clientCfg, instr.Bundle{}, func(b []byte) { w.toServer = append(w.toServer, append([]byte(nil), b...)) })
	if err != nil {
		t.Fatal(err)
	}
	w.server, err = NewConn(false, serverCfg, instr.Bundle{}, func(b []byte) { w.toClient = append(w.toClient, append([]byte(nil), b...)) })
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// pump delivers queued bytes in both directions until quiescent.
func (w *wirePair) pump() {
	w.t.Helper()
	for len(w.toServer) > 0 || len(w.toClient) > 0 {
		ts, tc := w.toServer, w.toClient
		w.toServer, w.toClient = nil, nil
		for _, b := range ts {
			if err := w.server.Feed(b); err != nil {
				w.t.Logf("server Feed: %v", err)
			}
		}
		for _, b := range tc {
			if w.sniffClient != nil {
				w.sniffClient(b)
			}
			if err := w.client.Feed(b); err != nil {
				w.t.Logf("client Feed: %v", err)
			}
		}
	}
}

func (w *wirePair) start() {
	w.client.Start()
	w.server.Start()
	w.pump()
}

func getFields(path string) []HeaderField {
	return []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.isidewith.com"},
		{Name: ":path", Value: path},
	}
}

func fieldValue(fields []HeaderField, name string) string {
	for _, f := range fields {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

func TestRequestResponse(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	// Server: respond to any request with 200 + 5000-byte body.
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			if got := fieldValue(fields, ":path"); got != "/quiz" {
				t.Errorf(":path = %q", got)
			}
			if !endStream {
				t.Error("request should carry END_STREAM")
			}
			if err := s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false); err != nil {
				t.Error(err)
			}
			if _, err := s.SendData(make([]byte, 5000), true); err != nil {
				t.Error(err)
			}
		},
	})
	var body bytes.Buffer
	var status string
	closed := false
	w.client.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			status = fieldValue(fields, ":status")
		},
		OnStreamData: func(s *Stream, data []byte, endStream bool) {
			body.Write(data)
		},
		OnStreamClosed: func(s *Stream) { closed = true },
	})
	w.start()
	if _, err := w.client.OpenStream(getFields("/quiz"), true, PriorityParam{}); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if status != "200" {
		t.Fatalf("status = %q", status)
	}
	if body.Len() != 5000 {
		t.Fatalf("body = %d bytes", body.Len())
	}
	if !closed {
		t.Fatal("stream never closed cleanly")
	}
	if w.client.Err() != nil || w.server.Err() != nil {
		t.Fatalf("errors: %v / %v", w.client.Err(), w.server.Err())
	}
}

func TestMultiplexedStreams(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			path := fieldValue(fields, ":path")
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			_, _ = s.SendData([]byte(strings.Repeat(path[1:2], 100)), true)
		},
	})
	bodies := map[uint32]*bytes.Buffer{}
	w.client.SetHandlers(Handlers{
		OnStreamData: func(s *Stream, data []byte, endStream bool) {
			if bodies[s.ID()] == nil {
				bodies[s.ID()] = &bytes.Buffer{}
			}
			bodies[s.ID()].Write(data)
		},
	})
	w.start()
	s1, _ := w.client.OpenStream(getFields("/aaa"), true, PriorityParam{})
	s2, _ := w.client.OpenStream(getFields("/bbb"), true, PriorityParam{})
	s3, _ := w.client.OpenStream(getFields("/ccc"), true, PriorityParam{})
	w.pump()
	for s, want := range map[*Stream]string{s1: "a", s2: "b", s3: "c"} {
		got := bodies[s.ID()].String()
		if got != strings.Repeat(want, 100) {
			t.Fatalf("stream %d body = %.10q…", s.ID(), got)
		}
	}
	if s1.ID() != 1 || s2.ID() != 3 || s3.ID() != 5 {
		t.Fatalf("ids = %d,%d,%d", s1.ID(), s2.ID(), s3.ID())
	}
}

func TestFlowControlBlocksAndResumes(t *testing.T) {
	// Small client-advertised window: server must stall until updates.
	w := newWirePair(t, Config{InitialWindowSize: 1000}, Config{})
	var srvStream *Stream
	pending := make([]byte, 5000)
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			srvStream = s
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			n, err := s.SendData(pending, true)
			if err != nil {
				t.Error(err)
			}
			if n >= len(pending) {
				t.Errorf("sent %d bytes despite 1000-byte window", n)
			}
			pending = pending[n:]
		},
		OnWindowAvailable: func(s *Stream) {
			if len(pending) == 0 || srvStream == nil {
				return
			}
			n, _ := srvStream.SendData(pending, true)
			pending = pending[n:]
		},
	})
	var got int
	w.client.SetHandlers(Handlers{
		OnStreamData: func(s *Stream, data []byte, endStream bool) { got += len(data) },
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/big"), true, PriorityParam{})
	w.pump()
	if got != 5000 {
		t.Fatalf("received %d bytes, want 5000", got)
	}
}

func TestSendWindowReporting(t *testing.T) {
	w := newWirePair(t, Config{InitialWindowSize: 2048}, Config{})
	var srv *Stream
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) { srv = s },
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/w"), true, PriorityParam{})
	w.pump()
	if srv == nil {
		t.Fatal("no server stream")
	}
	if got := srv.SendWindow(); got != 2048 {
		t.Fatalf("SendWindow = %d, want 2048 (stream window binds)", got)
	}
}

func TestRSTStreamPropagates(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var srvReset bool
	var srvCode ErrCode
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			// Server holds the response; client will cancel.
		},
		OnStreamReset: func(s *Stream, code ErrCode, remote bool) {
			srvReset = true
			srvCode = code
			if !remote {
				t.Error("reset should be remote on server side")
			}
		},
	})
	w.start()
	s, _ := w.client.OpenStream(getFields("/cancel-me"), true, PriorityParam{})
	w.pump()
	s.Reset(ErrCodeCancel)
	w.pump()
	if !srvReset || srvCode != ErrCodeCancel {
		t.Fatalf("server reset=%t code=%v", srvReset, srvCode)
	}
	if w.client.Stream(s.ID()) != nil {
		t.Fatal("client still tracks the reset stream")
	}
	if w.server.Err() != nil {
		t.Fatalf("server poisoned by stream reset: %v", w.server.Err())
	}
}

func TestDataAfterResetIgnored(t *testing.T) {
	// Server starts sending, client resets mid-flight, late DATA must not
	// kill the connection.
	w := newWirePair(t, Config{}, Config{})
	var srv *Stream
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			srv = s
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
		},
		OnStreamReset: func(s *Stream, code ErrCode, remote bool) {},
	})
	w.client.SetHandlers(Handlers{})
	w.start()
	s, _ := w.client.OpenStream(getFields("/late"), true, PriorityParam{})
	w.pump()
	// Client resets; in-flight server DATA crosses the reset.
	s.Reset(ErrCodeCancel)
	if srv == nil {
		t.Fatal("no server stream")
	}
	_, _ = srv.SendData(make([]byte, 2000), false) // heads toward client
	w.pump()
	if w.client.Err() != nil {
		t.Fatalf("client poisoned by post-reset DATA: %v", w.client.Err())
	}
	if w.server.Err() != nil {
		t.Fatalf("server error: %v", w.server.Err())
	}
}

func TestServerPush(t *testing.T) {
	w := newWirePair(t, Config{EnablePush: true}, Config{})
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			promised, err := w.server.Push(s, getFields("/style.css"))
			if err != nil {
				t.Errorf("Push: %v", err)
				return
			}
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			_, _ = s.SendData([]byte("main"), true)
			_ = promised.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			_, _ = promised.SendData([]byte("pushed-css"), true)
		},
	})
	var pushedPath string
	pushBody := map[uint32]*bytes.Buffer{}
	w.client.SetHandlers(Handlers{
		OnPushPromise: func(parent, promised *Stream, fields []HeaderField) {
			pushedPath = fieldValue(fields, ":path")
			pushBody[promised.ID()] = &bytes.Buffer{}
		},
		OnStreamData: func(s *Stream, data []byte, endStream bool) {
			if b := pushBody[s.ID()]; b != nil {
				b.Write(data)
			}
		},
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/index.html"), true, PriorityParam{})
	w.pump()
	if pushedPath != "/style.css" {
		t.Fatalf("pushed path = %q", pushedPath)
	}
	if got := pushBody[2].String(); got != "pushed-css" {
		t.Fatalf("pushed body = %q", got)
	}
}

func TestPushRefusedWhenDisabled(t *testing.T) {
	w := newWirePair(t, Config{EnablePush: false}, Config{})
	var pushErr error
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			_, pushErr = w.server.Push(s, getFields("/sneaky.js"))
		},
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/"), true, PriorityParam{})
	w.pump()
	if pushErr == nil {
		t.Fatal("push succeeded despite peer disabling it")
	}
}

func TestPingRoundTrip(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var gotAck bool
	var gotData [8]byte
	w.client.SetHandlers(Handlers{
		OnPing: func(ack bool, data [8]byte) {
			if ack {
				gotAck = true
				gotData = data
			}
		},
	})
	w.start()
	data := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	w.client.Ping(data)
	w.pump()
	if !gotAck || gotData != data {
		t.Fatalf("ack=%t data=%v", gotAck, gotData)
	}
}

func TestGoAwayStopsNewStreams(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var sawGoAway bool
	w.client.SetHandlers(Handlers{
		OnGoAway: func(last uint32, code ErrCode, debug []byte) { sawGoAway = true },
	})
	w.start()
	w.server.GoAway(ErrCodeNo, []byte("maintenance"))
	w.pump()
	if !sawGoAway {
		t.Fatal("client missed GOAWAY")
	}
	if _, err := w.client.OpenStream(getFields("/x"), true, PriorityParam{}); err == nil {
		t.Fatal("OpenStream succeeded after GOAWAY")
	}
}

func TestLargeHeadersUseContinuation(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	big := strings.Repeat("v", 40_000)
	var got string
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			got = fieldValue(fields, "x-big")
		},
	})
	w.start()
	fields := append(getFields("/c"), HeaderField{Name: "x-big", Value: big})
	_, err := w.client.OpenStream(fields, true, PriorityParam{})
	if err != nil {
		t.Fatal(err)
	}
	w.pump()
	if got != big {
		t.Fatalf("large header corrupted: got %d bytes", len(got))
	}
	if w.server.Stats().FramesReceived[FrameContinuation] == 0 {
		t.Fatal("no CONTINUATION frames used")
	}
}

func TestMaxConcurrentStreamsRefusesExcess(t *testing.T) {
	w := newWirePair(t, Config{}, Config{MaxConcurrentStreams: 2})
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			// Hold streams open.
		},
	})
	var refused []uint32
	w.client.SetHandlers(Handlers{
		OnStreamReset: func(s *Stream, code ErrCode, remote bool) {
			if code == ErrCodeRefusedStream {
				refused = append(refused, s.ID())
			}
		},
	})
	w.start()
	for i := 0; i < 4; i++ {
		_, _ = w.client.OpenStream(getFields(fmt.Sprintf("/s%d", i)), true, PriorityParam{})
	}
	w.pump()
	if len(refused) != 2 {
		t.Fatalf("refused %v, want 2 streams refused", refused)
	}
}

func TestPaddingEndToEnd(t *testing.T) {
	w := newWirePair(t, Config{}, Config{PadData: func(n int) int { return 64 }})
	var frameSizes []int
	var got int
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			_, _ = s.SendData(make([]byte, 500), true)
		},
	})
	w.client.SetHandlers(Handlers{
		OnStreamData: func(s *Stream, data []byte, endStream bool) { got += len(data) },
	})
	w.sniffClient = func(b []byte) {
		if hdr := parseFrameHeader(b); hdr.Type == FrameData {
			frameSizes = append(frameSizes, hdr.Length)
		}
	}
	w.start()
	_, _ = w.client.OpenStream(getFields("/padded"), true, PriorityParam{})
	w.pump()
	if got != 500 {
		t.Fatalf("delivered %d bytes, want 500 (padding must be stripped)", got)
	}
	if len(frameSizes) != 1 || frameSizes[0] != 565 {
		t.Fatalf("DATA payload sizes = %v, want [565]", frameSizes)
	}
}

func TestBadPrefaceKillsConnection(t *testing.T) {
	server, err := NewConn(false, Config{}, instr.Bundle{}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Feed([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err == nil {
		t.Fatal("bad preface accepted")
	}
	var ce ConnectionError
	if !errors.As(server.Err(), &ce) || ce.Code != ErrCodeProtocol {
		t.Fatalf("err = %v", server.Err())
	}
}

func TestDataOnIdleStreamIsConnError(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.start()
	// Handcraft a DATA frame for a stream that was never opened.
	raw := AppendData(nil, 7, []byte("rogue"), false, 0)
	if err := w.server.Feed(raw); err == nil {
		t.Fatal("DATA on idle stream accepted")
	}
}

func TestSettingsApplied(t *testing.T) {
	w := newWirePair(t, Config{MaxFrameSize: 32768}, Config{})
	w.start()
	if w.server.peerMaxFrameSize != 32768 {
		t.Fatalf("server peerMaxFrameSize = %d", w.server.peerMaxFrameSize)
	}
	// SETTINGS must be ACKed.
	if w.client.Stats().FramesReceived[FrameSettings] < 2 { // server settings + ack
		t.Fatalf("client saw %d SETTINGS frames", w.client.Stats().FramesReceived[FrameSettings])
	}
}

func TestInitialWindowSizeAdjustsOpenStreams(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var srv *Stream
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) { srv = s },
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/adjust"), true, PriorityParam{})
	w.pump()
	before := srv.sendWindow
	// Client re-announces a smaller initial window.
	raw := AppendSettings(nil, []Setting{{SettingInitialWindowSize, 1000}})
	if err := w.server.Feed(raw); err != nil {
		t.Fatal(err)
	}
	if srv.sendWindow != before-(DefaultInitialWindowSize-1000) {
		t.Fatalf("sendWindow = %d, want shrunk by delta", srv.sendWindow)
	}
}

func TestPriorityRecorded(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	var srv *Stream
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) { srv = s },
	})
	w.start()
	prio := PriorityParam{StreamDep: 0, Weight: 219} // Firefox "leader" weight
	_, _ = w.client.OpenStream(getFields("/p"), true, prio)
	w.pump()
	if srv.Priority() != prio {
		t.Fatalf("priority = %+v", srv.Priority())
	}
}

func TestFrameStatsCounted(t *testing.T) {
	w := newWirePair(t, Config{}, Config{})
	w.server.SetHandlers(Handlers{
		OnStreamHeaders: func(s *Stream, fields []HeaderField, endStream bool) {
			_ = s.SendHeaders([]HeaderField{{Name: ":status", Value: "200"}}, false)
			_, _ = s.SendData(make([]byte, 100), true)
		},
	})
	w.start()
	_, _ = w.client.OpenStream(getFields("/st"), true, PriorityParam{})
	w.pump()
	cs, ss := w.client.Stats(), w.server.Stats()
	if cs.FramesSent[FrameHeaders] != 1 || ss.FramesReceived[FrameHeaders] != 1 {
		t.Fatalf("HEADERS counts: sent=%d rcvd=%d", cs.FramesSent[FrameHeaders], ss.FramesReceived[FrameHeaders])
	}
	if ss.DataBytesSent != 100 || cs.DataBytesRcvd != 100 {
		t.Fatalf("data bytes: sent=%d rcvd=%d", ss.DataBytesSent, cs.DataBytesRcvd)
	}
}
