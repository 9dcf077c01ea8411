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

// This file summarises a runtime/pprof CPU profile by layer without
// any dependency: a minimal decoder of the profile.proto wire format
// (only the fields attribution needs) and the attribution rule.

// stackSample is one profile sample: its CPU value and its function
// names, innermost (leaf) first, inlined frames included.
type stackSample struct {
	value int64
	funcs []string
}

// layers are the buckets CPU is attributed to: the module's packages
// (facade is the root package allarm), bench for the benchmark's own
// client code, and two buckets for stacks with no allarm frame.
var layers = []string{
	"sim", "cache", "coherence", "core", "noc", "mem", "dram", "workload",
	"rng", "system", "checkpoint", "energy", "stats", "facade", "server",
	"fleet", "obs", "trace", "other", "bench", "nethttp", "runtime",
}

// layerOf attributes a stack to the layer of its innermost allarm
// frame, so a runtime map lookup called from mem counts as mem. A stack
// with no allarm frame is nethttp when it runs net/http (or net) code,
// bench when it runs the benchmark's own code, and runtime otherwise
// (GC, the scheduler).
func layerOf(funcs []string) string {
	for _, f := range funcs {
		if l, ok := allarmLayer(f); ok {
			return l
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "net/http.") || strings.HasPrefix(f, "net.") {
			return "nethttp"
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// allarmLayer maps a fully qualified function name of the allarm module
// to its layer.
func allarmLayer(fn string) (string, bool) {
	const internal = "allarm/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l, true
			}
		}
		return "other", true
	case strings.HasPrefix(fn, "allarm."):
		return "facade", true
	case strings.HasPrefix(fn, "allarm/"):
		return "other", true
	}
	return "", false
}

// cpuShares attributes every sample and returns each layer's share of
// the total value; the shares sum to 1 (all zero for an empty profile).
func cpuShares(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.value
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		out[layerOf(s.funcs)] += float64(s.value) / float64(total)
	}
	return out
}

// parseProfile decodes a (possibly gzipped) profile.proto and returns
// its samples, valued by the last sample type (CPU nanoseconds for a
// CPU profile).
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, idx, len(strs))
				}
				ss.funcs = append(ss.funcs, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of one protobuf message. fn gets
// the value of varint fields and the bytes of length-delimited ones;
// fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
