package h2

import (
	"testing"
	"testing/quick"

	"h2privacy/internal/instr"
)

// Property: arbitrary bytes fed to a started server connection never
// panic: the connection either keeps parsing or fails cleanly with a
// connection error, and once failed it stays failed.
func TestHostileBytesNeverPanic(t *testing.T) {
	f := func(chunks [][]byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		srv, err := NewConn(false, Config{}, instr.Bundle{}, func([]byte) {})
		if err != nil {
			return false
		}
		srv.Start()
		// Valid preface first so the fuzz reaches the frame layer.
		if err := srv.Feed([]byte(ClientPreface)); err != nil {
			return false
		}
		failed := false
		for _, c := range chunks {
			err := srv.Feed(c)
			if failed && err == nil {
				return false // failure must be sticky
			}
			if err != nil {
				failed = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: well-formed frames with arbitrary unknown types are skipped
// without killing the connection.
func TestUnknownFramesNeverFatal(t *testing.T) {
	f := func(types []uint8, payloadLen uint16) bool {
		srv, err := NewConn(false, Config{}, instr.Bundle{}, func([]byte) {})
		if err != nil {
			return false
		}
		srv.Start()
		if err := srv.Feed([]byte(ClientPreface)); err != nil {
			return false
		}
		if err := srv.Feed(AppendSettings(nil, nil)); err != nil {
			return false
		}
		for _, ty := range types {
			if ty <= 9 {
				continue // known types have their own validation
			}
			n := int(payloadLen) % 1000
			wire := appendFrameHeader(nil, n, FrameType(ty), 0, 1)
			wire = append(wire, make([]byte, n)...)
			if err := srv.Feed(wire); err != nil {
				return false
			}
		}
		return srv.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the frame reader consumes arbitrary fragmentations of a valid
// frame stream identically (no state depends on chunk boundaries).
func TestFrameReaderFragmentationProperty(t *testing.T) {
	// A fixed valid frame sequence.
	var stream []byte
	stream = AppendSettings(stream, []Setting{{SettingInitialWindowSize, 1 << 20}})
	stream = AppendHeaders(stream, 1, []byte{0x82, 0x84, 0x86, 0x87}, true, true, PriorityParam{})
	stream = AppendData(stream, 1, make([]byte, 321), true, 7)
	stream = AppendPing(stream, false, [8]byte{1})
	stream = AppendGoAway(stream, 1, ErrCodeNo, []byte("bye"))

	parseAll := func(cuts []uint8) ([]FrameType, bool) {
		r := NewFrameReader()
		var types []FrameType
		pos := 0
		feed := func(b []byte) bool {
			r.Feed(b)
			for {
				f, err := r.Next()
				if err != nil {
					return false
				}
				if f == nil {
					return true
				}
				types = append(types, f.Header.Type)
			}
		}
		for _, c := range cuts {
			n := int(c)%64 + 1
			if pos+n > len(stream) {
				break
			}
			if !feed(stream[pos : pos+n]) {
				return nil, false
			}
			pos += n
		}
		if pos < len(stream) && !feed(stream[pos:]) {
			return nil, false
		}
		return types, true
	}
	want, ok := parseAll(nil)
	if !ok || len(want) != 5 {
		t.Fatalf("reference parse failed: %v", want)
	}
	f := func(cuts []uint8) bool {
		got, ok := parseAll(cuts)
		if !ok || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
