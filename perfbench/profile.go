package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file reads the gzipped profile.proto the runtime's CPU profiler
// writes and attributes its samples to the simulator's layers. Only the
// fields attribution needs are decoded: sample types, samples, locations
// (with inlined frames), functions and the string table.

// sample is one CPU profile sample: its stack, innermost frame first with
// inlined frames expanded, and the CPU time it stands for.
type sample struct {
	stack []string
	cpuNS int64
}

// Layer names: every internal package maps to one of the repo layers, GC
// work goes to runtime.gc and anything without a repo frame to other.
const (
	gcLayer    = "runtime.gc"
	otherLayer = "other"
)

// layers lists every attribution bucket in report order.
var layers = []string{
	"simtime", "netsim", "tcpsim", "tlsrec", "h2", "endpoint", "capture",
	"predict", "adversary", "flowseq", "core", "experiment", "pool",
	"instruments", gcLayer, otherLayer,
}

// layerOfPackage maps the first path element under h2privacy/internal/ to
// its layer; sub-packages (h2/h2sync, check/prop) share their parent's.
var layerOfPackage = map[string]string{
	"simtime": "simtime", "netsim": "netsim", "tcpsim": "tcpsim", "tlsrec": "tlsrec",
	"h2": "h2", "hpack": "h2",
	"endpoint": "endpoint", "website": "endpoint", "h1": "endpoint",
	"capture": "capture",
	"predict": "predict", "metrics": "predict",
	"adversary": "adversary", "flowseq": "flowseq", "core": "core",
	"experiment": "experiment", "pool": "pool",
	"check": "instruments", "obs": "instruments", "trace": "instruments",
	"perf": "instruments", "cliutil": "instruments",
}

const repoPrefix = "h2privacy/internal/"

// frameLayer returns the layer of a repo function, or "" for any other.
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return layerOfPackage[rest]
}

// gcPrefixes name the runtime's collector: background mark and sweep
// workers, mark assists, root and object scanning, write-barrier flushes.
var gcPrefixes = []string{
	"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.sweepone",
	"runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
}

func isGCFrame(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// sampleLayer attributes one stack: a GC frame anywhere makes it GC work,
// otherwise the innermost repo frame names the layer, so crypto/sha256
// under tlsrec counts as tlsrec and container/heap under simtime as
// simtime.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return gcLayer
		}
	}
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return otherLayer
}

// attribute sums CPU time per layer. Samples with a frame named drop are
// left out: the benchmark's own re-timing of library calls must not
// inflate the layers it re-times.
func attribute(samples []sample, drop string) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		if drop != "" && contains(s.stack, drop) {
			continue
		}
		out[sampleLayer(s.stack)] += s.cpuNS
	}
	return out
}

func contains(stack []string, fn string) bool {
	for _, f := range stack {
		if f == fn {
			return true
		}
	}
	return false
}

// shares converts per-layer CPU time to percentages of the attributed
// total; every layer is present, and the shares sum to 100 when any time
// was attributed.
func shares(byLayer map[string]int64) map[string]float64 {
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// cpuProfile is a CPU profile being captured into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the capture and decodes its samples.
func (p *cpuProfile) stop() ([]sample, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// parseProfile decodes a gzipped profile.proto and returns its samples
// with the value of the "cpu" sample type.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs      []string
		typeNames []uint64 // string index of each sample type
		rawSamps  []rawSample
		funcName  = map[uint64]uint64{}   // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			var typ uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = v
				}
				return nil
			})
			typeNames = append(typeNames, typ)
			return err
		case 2: // sample: location_id = 1, value = 2
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, u := range vals {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			rawSamps = append(rawSamps, s)
			return err
		case 4: // location: id = 1, line = 4 (Line{function_id = 1})
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: id = 1, name = 2
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(rawSamps))
	for _, rs := range rawSamps {
		if cpu >= len(rs.vals) {
			return nil, errors.New("profile: sample without cpu value")
		}
		s := sample{cpuNS: rs.vals[cpu]}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields fn
// gets the value; for length-delimited fields it gets the payload. Fixed
// 32- and 64-bit fields are skipped (the reader needs none of them).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// unpacked (b nil), the whole packed run otherwise.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, u)
		b = b[n:]
	}
	return nil
}
