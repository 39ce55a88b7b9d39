package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// foldProfile decodes a gzipped runtime/pprof CPU profile and adds each
// sample's count to the host layer of its leaf frame's package (flat
// attribution, as `go tool pprof -top` ranks functions). Every sample
// lands in exactly one layer, so the layer counts sum to the sample total.
//
// The decoder reads only the profile.proto fields it needs: samples
// (field 2: location ids, values), locations (field 4: id, lines),
// functions (field 5: id, name) and the string table (field 6).
func foldProfile(data []byte, counts map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{} // function id -> name string index
		locs    = map[uint64]uint64{} // location id -> leaf function id
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			// The first location is the leaf; the first value is the
			// sample count (the second is CPU nanoseconds).
			var s sample
			var haveLoc, haveVal bool
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if ids := packed(v, b); !haveLoc && len(ids) > 0 {
						s.leaf, haveLoc = ids[0], true
					}
				case 2:
					if vals := packed(v, b); !haveVal && len(vals) > 0 {
						s.count, haveVal = int64(vals[0]), true
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if !haveLine { // the first line is the innermost (inlined) frame
						haveLine = true
						return protoFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locs[id] = fn
			return err
		case 5:
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		name := ""
		if fn, ok := locs[s.leaf]; ok {
			if idx, ok := funcs[fn]; ok && idx < uint64(len(strs)) {
				name = strs[idx]
			}
		}
		counts[layerOf(name)] += s.count
	}
	return nil
}

// layerOf maps a fully qualified Go function name to its host layer:
// the simulator module it belongs to (repro/internal/<layer>), the Go
// runtime, or other.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, l := range hostLayers {
			if l == mod {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value (wire types 0, 1, 5) or its bytes
// (wire type 2).
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field given either packed (data) or
// as a single unpacked value.
func packed(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}
