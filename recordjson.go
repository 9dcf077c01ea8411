package allarm

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The Record wire codec: NDJSONEmitter appends each Record in exactly
// the bytes json.Encoder would write for it, and ReadRecords scans that
// canonical form back without reflection. Both sides run once per shard
// per gather in allarm-router, so they stay allocation-light.

// appendRecord appends rec as one NDJSON line: the keys in Record's
// field order, the omitempty fields (copies, error, aborted) only when
// set, and the metric keys only when RecordMetrics is non-nil. A NaN or
// infinite metric is refused with the error json.Encoder returns.
func appendRecord(b []byte, rec *Record) ([]byte, error) {
	b = append(b, `{"benchmark":`...)
	b = appendJSONString(b, rec.Benchmark)
	b = append(b, `,"policy":`...)
	b = appendJSONString(b, rec.Policy)
	b = append(b, `,"threads":`...)
	b = strconv.AppendInt(b, int64(rec.Threads), 10)
	if rec.Copies != 0 {
		b = append(b, `,"copies":`...)
		b = strconv.AppendInt(b, int64(rec.Copies), 10)
	}
	b = append(b, `,"pf_kib":`...)
	b = strconv.AppendInt(b, int64(rec.PFKiB), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, rec.Seed, 10)
	if rec.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, rec.Error)
	}
	if rec.Aborted {
		b = append(b, `,"aborted":true`...)
	}
	if m := rec.RecordMetrics; m != nil {
		for _, v := range [...]float64{m.RuntimeNs, m.NoCEnergyPJ, m.PFEnergyPJ} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
			}
		}
		b = append(b, `,"runtime_ns":`...)
		b = appendJSONFloat(b, m.RuntimeNs)
		b = append(b, `,"accesses":`...)
		b = strconv.AppendUint(b, m.Accesses, 10)
		b = append(b, `,"pf_allocs":`...)
		b = strconv.AppendUint(b, m.PFAllocs, 10)
		b = append(b, `,"pf_evictions":`...)
		b = strconv.AppendUint(b, m.PFEvictions, 10)
		b = append(b, `,"eviction_msgs":`...)
		b = strconv.AppendUint(b, m.EvictionMsgs, 10)
		b = append(b, `,"l2_misses":`...)
		b = strconv.AppendUint(b, m.L2Misses, 10)
		b = append(b, `,"noc_bytes":`...)
		b = strconv.AppendUint(b, m.NoCBytes, 10)
		b = append(b, `,"noc_msgs":`...)
		b = strconv.AppendUint(b, m.NoCMessages, 10)
		b = append(b, `,"local_reqs":`...)
		b = strconv.AppendUint(b, m.LocalRequests, 10)
		b = append(b, `,"remote_reqs":`...)
		b = strconv.AppendUint(b, m.RemoteRequests, 10)
		b = append(b, `,"local_probes":`...)
		b = strconv.AppendUint(b, m.LocalProbes, 10)
		b = append(b, `,"probes_hidden":`...)
		b = strconv.AppendUint(b, m.ProbesHidden, 10)
		b = append(b, `,"untracked_grants":`...)
		b = strconv.AppendUint(b, m.UntrackedGrants, 10)
		b = append(b, `,"uncached_grants":`...)
		b = strconv.AppendUint(b, m.UncachedGrants, 10)
		b = append(b, `,"noc_energy_pj":`...)
		b = appendJSONFloat(b, m.NoCEnergyPJ)
		b = append(b, `,"pf_energy_pj":`...)
		b = appendJSONFloat(b, m.PFEnergyPJ)
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends a finite float the way encoding/json prints
// it: the shortest decimal that parses back to the same bits, in 'f'
// form unless the magnitude is below 1e-6 or at least 1e21, where 'e'
// form is used with a one-digit negative exponent unpadded (e-7, not
// e-07). Shortest-exact is what makes the NDJSON round trip lossless.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s quoted with encoding/json's HTML-safe
// escaping: '"', '\\' and control bytes escaped (\b \f \n \r \t short,
// the rest \u00XX), '<', '>' and '&' as \u003c \u003e \u0026, invalid
// UTF-8 as \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// parseRecord decodes one line in the canonical form appendRecord
// writes (without its newline) into rec, which must be zero. It
// reports false, leaving rec partly filled, for any line outside that
// form: an unknown or repeated key, whitespace, a string with an escape
// or invalid UTF-8, a literal other than true or false, a number
// strconv refuses for its field. On true, rec equals what
// json.Unmarshal decodes from the line.
func parseRecord(line []byte, rec *Record) bool {
	p := lineScanner{s: line}
	if !p.skip('{') {
		return false
	}
	var seen uint32
	for {
		key, ok := p.quoted()
		if !ok || !p.skip(':') {
			return false
		}
		var bit uint32
		switch string(key) {
		case "benchmark":
			bit = 1 << 0
			rec.Benchmark, ok = p.text()
		case "policy":
			bit = 1 << 1
			rec.Policy, ok = p.text()
		case "threads":
			bit = 1 << 2
			rec.Threads, ok = p.int()
		case "copies":
			bit = 1 << 3
			rec.Copies, ok = p.int()
		case "pf_kib":
			bit = 1 << 4
			rec.PFKiB, ok = p.int()
		case "seed":
			bit = 1 << 5
			rec.Seed, ok = p.uint()
		case "error":
			bit = 1 << 6
			rec.Error, ok = p.text()
		case "aborted":
			bit = 1 << 7
			rec.Aborted, ok = p.bool()
		case "runtime_ns":
			bit = 1 << 8
			metricsOf(rec).RuntimeNs, ok = p.float()
		case "accesses":
			bit = 1 << 9
			metricsOf(rec).Accesses, ok = p.uint()
		case "pf_allocs":
			bit = 1 << 10
			metricsOf(rec).PFAllocs, ok = p.uint()
		case "pf_evictions":
			bit = 1 << 11
			metricsOf(rec).PFEvictions, ok = p.uint()
		case "eviction_msgs":
			bit = 1 << 12
			metricsOf(rec).EvictionMsgs, ok = p.uint()
		case "l2_misses":
			bit = 1 << 13
			metricsOf(rec).L2Misses, ok = p.uint()
		case "noc_bytes":
			bit = 1 << 14
			metricsOf(rec).NoCBytes, ok = p.uint()
		case "noc_msgs":
			bit = 1 << 15
			metricsOf(rec).NoCMessages, ok = p.uint()
		case "local_reqs":
			bit = 1 << 16
			metricsOf(rec).LocalRequests, ok = p.uint()
		case "remote_reqs":
			bit = 1 << 17
			metricsOf(rec).RemoteRequests, ok = p.uint()
		case "local_probes":
			bit = 1 << 18
			metricsOf(rec).LocalProbes, ok = p.uint()
		case "probes_hidden":
			bit = 1 << 19
			metricsOf(rec).ProbesHidden, ok = p.uint()
		case "untracked_grants":
			bit = 1 << 20
			metricsOf(rec).UntrackedGrants, ok = p.uint()
		case "uncached_grants":
			bit = 1 << 21
			metricsOf(rec).UncachedGrants, ok = p.uint()
		case "noc_energy_pj":
			bit = 1 << 22
			metricsOf(rec).NoCEnergyPJ, ok = p.float()
		case "pf_energy_pj":
			bit = 1 << 23
			metricsOf(rec).PFEnergyPJ, ok = p.float()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.skip('}') {
			return p.i == len(p.s)
		}
		if !p.skip(',') {
			return false
		}
	}
}

// metricsOf returns rec's metrics, allocating them on the first metric
// key as json.Unmarshal does for the embedded pointer.
func metricsOf(rec *Record) *RecordMetrics {
	if rec.RecordMetrics == nil {
		rec.RecordMetrics = new(RecordMetrics)
	}
	return rec.RecordMetrics
}

// lineScanner is parseRecord's cursor over one line.
type lineScanner struct {
	s []byte
	i int
}

// skip consumes c if it is the next byte.
func (p *lineScanner) skip(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// quoted consumes a quoted string with no escapes and no control bytes
// whose contents are valid UTF-8 — exactly the strings json.Unmarshal
// returns byte for byte — and returns its contents.
func (p *lineScanner) quoted() ([]byte, bool) {
	if !p.skip('"') {
		return nil, false
	}
	n := bytes.IndexByte(p.s[p.i:], '"')
	if n < 0 {
		return nil, false
	}
	v := p.s[p.i : p.i+n]
	var high byte
	for _, c := range v {
		if c < ' ' || c == '\\' {
			return nil, false
		}
		high |= c
	}
	if high >= utf8.RuneSelf && !utf8.Valid(v) {
		return nil, false
	}
	p.i += n + 1
	return v, true
}

func (p *lineScanner) text() (string, bool) {
	v, ok := p.quoted()
	return string(v), ok
}

// number consumes a number in JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text
// for strconv, which then applies the same parse json.Unmarshal does.
func (p *lineScanner) number() ([]byte, bool) {
	s, i := p.s, p.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(s, i)
	default:
		return nil, false
	}
	if i < len(s) && s[i] == '.' {
		j := digits(s, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(s, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	num := s[p.i:i]
	p.i = i
	return num, true
}

// digits returns the index past the run of decimal digits at s[i:].
func digits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

func (p *lineScanner) int() (int, bool) {
	num, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	return int(v), err == nil
}

func (p *lineScanner) uint() (uint64, bool) {
	num, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(num), 10, 64)
	return v, err == nil
}

func (p *lineScanner) float() (float64, bool) {
	num, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}

func (p *lineScanner) bool() (bool, bool) {
	rest := p.s[p.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		p.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		p.i += 5
		return false, true
	}
	return false, false
}
