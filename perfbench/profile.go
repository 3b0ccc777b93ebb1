package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets of the CPU-profile attribution: the simulator's
// layers, the Go runtime, and everything else (the driver itself).
var cpuLayers = []string{
	"sim", "medium", "mac", "dot11", "core", "crypto80211", "sta", "ap",
	"netstack", "esp32", "meter", "obs", "runtime", "other",
}

// cpuShares reads a CPU profile as runtime/pprof writes it (gzipped
// protobuf) and returns each layer's share of sampled CPU time in percent.
//
// A sample is charged to the innermost frame of its stack that is a layer
// package, the runtime (allocation, GC, maps), or the driver. Frames of
// other packages — the standard library's crypto/sha1 under PBKDF2, phy's
// path-loss maths under the medium — pass their time to their caller, so
// each layer's share includes the helpers it calls.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	total := 0.0
	byLayer := map[string]float64{}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		// The last value of a CPU profile sample is its CPU nanoseconds.
		v := float64(s.values[len(s.values)-1])
		byLayer[p.attribute(s.locs)] += v
		total += v
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * byLayer[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// profile is the part of a pprof Profile message the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// attribute returns the layer a stack's time is charged to.
func (p *profile) attribute(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			idx := p.funcNames[fn]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			if layer, ok := classify(p.strings[idx]); ok {
				return layer
			}
		}
	}
	return "other"
}

// classify maps a function name to its bucket; ok is false for frames that
// pass their time to their caller.
func classify(fn string) (layer string, ok bool) {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "wile/internal/"):
		name := strings.TrimPrefix(pkg, "wile/internal/")
		for _, l := range cpuLayers {
			if l == name {
				return l, true
			}
		}
		return "", false
	case pkg == "main":
		return "other", true
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg":
		return "runtime", true
	}
	return "", false
}

// funcPackage extracts the import path from a symbol name such as
// "wile/internal/medium.(*Medium).Transmit.func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Field numbers of the pprof protobuf schema (profile.proto).
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileString   = 6
	fieldSampleLocation  = 1
	fieldSampleValue     = 2
	fieldLocationID      = 1
	fieldLocationLine    = 4
	fieldLineFunction    = 1
	fieldFunctionID      = 1
	fieldFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := walkFields(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case fieldProfileSample:
			var s sample
			err := walkFields(msg, func(f int, v uint64, packed []byte) error {
				switch f {
				case fieldSampleLocation:
					return appendVarints(&s.locs, v, packed)
				case fieldSampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var funcs []uint64
			err := walkFields(msg, func(f int, v uint64, line []byte) error {
				switch f {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return walkFields(line, func(f int, v uint64, _ []byte) error {
						if f == fieldLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case fieldProfileFunction:
			var id uint64
			name := int64(-1)
			err := walkFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fieldProfileString:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field that arrives either as one
// varint (v) or packed into a length-delimited payload.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errBadProfile
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

var errBadProfile = errors.New("malformed protobuf")

// walkFields calls fn for each field of a protobuf message: varint fields
// with their value and a nil payload, length-delimited fields with their
// payload (non-nil, possibly empty). Fixed-width fields are skipped.
func walkFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			payload := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
		default:
			return errBadProfile
		}
	}
	return nil
}
