package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true},
		{200, 95, true},
		{180, 90, true},
		{100, 90, true},
		{40, 75, true},
		{25, 50, true},
		{19, 0, false},
	} {
		p, v, ok := tailPercentile(seq(tc.n))
		if p != tc.want || ok != tc.ok {
			t.Errorf("n=%d: got p%g ok=%t, want p%g ok=%t", tc.n, p, ok, tc.want, tc.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g = %g has %d samples beyond it", tc.n, p, v, beyond)
			}
		}
	}
}

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	// Python: statistics.quantiles([1, 2, 3, 4, 10], n=4, method="inclusive")
	// == [2.0, 3.0, 4.0].
	xs := []float64{10, 1, 3, 2, 4}
	for q, want := range map[float64]float64{0.25: 2, 0.5: 3, 0.75: 4, 0.9: 7.6} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// [10,40) and [30,60) overlap: together they cover 50, not 60.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// Runs past the parent's end: only [90,100) counts.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// Nested inside a: covered by a already, and a's own child.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.closed() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.start("op", 0, 7)
	child := tr.start("call", root, 7)
	tr.start("open", root, 7) // never ended: not written out
	tr.end(child)
	tr.end(root)
	got := tr.closed()
	if len(got) != 2 || got[0].Name != "op" || got[1].Parent != root {
		t.Fatalf("closed spans = %+v", got)
	}
}

func TestClosedLoopCountsFailuresAsMissingEveryLatency(t *testing.T) {
	var l closedLoop
	for i := 1; i <= 18; i++ {
		l.ok(time.Duration(i) * time.Millisecond)
	}
	l.fail() // refused
	l.fail() // wrong output
	if l.attempted() != 20 || l.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 20 and 2", l.attempted(), l.failed)
	}
	if p50 := l.percentile(50); math.IsInf(p50, 0) || p50 > 11 {
		t.Errorf("p50 = %g ms, want a finite median of the successes and failures", p50)
	}
	// Two failures in twenty are 10%: every percentile from about the 90th
	// (interpolating into a failure) is missed.
	if p95 := l.percentile(95); !math.IsInf(p95, 1) {
		t.Errorf("p95 = %g, want +Inf: failures must miss every latency limit", p95)
	}
	if r := l.rate(time.Second); r != 18 {
		t.Errorf("rate = %g/s, want 18 (failures do not count as completed)", r)
	}
	var other closedLoop
	other.fail()
	l.merge(&other)
	if l.attempted() != 21 || l.failed != 3 {
		t.Errorf("after merge attempted %d failed %d, want 21 and 3", l.attempted(), l.failed)
	}
}

func TestLayerOfInnermostAllarmFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// A runtime map lookup called from mem counts as mem.
		{[]string{"runtime.mapaccess2_fast64", "allarm/internal/mem.(*AddressSpace).Translate",
			"allarm/internal/core.(*DirCtrl).request", "allarm/internal/sim.(*Engine).RunCtx"}, "mem"},
		// A GC-only stack has no allarm frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime"},
		{[]string{"allarm.(*RunHandle).Step", "main.finish", "main.main"}, "facade"},
		{[]string{"encoding/json.(*encodeState).marshal", "allarm/internal/server.writeJSON",
			"net/http.HandlerFunc.ServeHTTP", "net/http.(*conn).serve"}, "server"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, "nethttp"},
		{[]string{"bytes.Equal", "main.(*fleetRun).sweep"}, "bench"},
		{[]string{"allarm/internal/faultnet.(*Plan).next"}, "other"},
		{[]string{"allarm/internal/sim.(*queue).pop", "allarm/internal/sim.(*Engine).RunCtx"}, "sim"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// pb is a minimal protobuf encoder for building a fixed profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(num int, v uint64) *pb {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	p.Write(binary.AppendUvarint(nil, v))
	return p
}

func (p *pb) bytesField(num int, b []byte) *pb {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
	return p
}

func TestParseProfileAttributesFixedProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mapaccess2_fast64", "allarm/internal/mem.(*AddressSpace).Translate",
		"runtime.scanobject", "runtime.gcBgMarkWorker", "allarm/internal/sim.(*Engine).RunCtx"}
	var prof pb
	prof.bytesField(1, new(pb).varint(1, 1).varint(2, 2).Bytes())
	prof.bytesField(1, new(pb).varint(1, 3).varint(2, 4).Bytes())
	// Function i+1 is named by string 5+i.
	for i := 0; i < 5; i++ {
		prof.bytesField(5, new(pb).varint(1, uint64(i+1)).varint(2, uint64(5+i)).Bytes())
	}
	// Location 1 inlines mapaccess (function 1) into Translate
	// (function 2); locations 2-4 are plain.
	prof.bytesField(4, new(pb).varint(1, 1).
		bytesField(4, new(pb).varint(1, 1).Bytes()).
		bytesField(4, new(pb).varint(1, 2).Bytes()).Bytes())
	for loc, fn := range map[uint64]uint64{2: 3, 3: 4, 4: 5} {
		prof.bytesField(4, new(pb).varint(1, loc).bytesField(4, new(pb).varint(1, fn).Bytes()).Bytes())
	}
	packed := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	// 30ms in mem (via the inlined map lookup under sim), 10ms of GC.
	prof.bytesField(2, new(pb).bytesField(1, packed(1, 4)).bytesField(2, packed(3, 30e6)).Bytes())
	// Unpacked repeated fields decode too.
	prof.bytesField(2, new(pb).varint(1, 2).varint(1, 3).varint(2, 1).varint(2, 10e6).Bytes())
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].value != 30e6 || len(samples[0].funcs) != 3 ||
		samples[0].funcs[0] != "runtime.mapaccess2_fast64" {
		t.Fatalf("samples = %+v", samples)
	}
	shares := cpuShares(samples)
	if shares["mem"] != 0.75 || shares["runtime"] != 0.25 || shares["sim"] != 0 {
		t.Errorf("shares mem %g runtime %g sim %g, want 0.75, 0.25, 0", shares["mem"], shares["runtime"], shares["sim"])
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	if _, err := parseProfile(prof.Bytes()[:len(prof.Bytes())-3]); err == nil {
		t.Errorf("truncated profile parsed without error")
	}
}

func TestLastSweepStatus(t *testing.T) {
	stream := "event: sweep\ndata: {\"status\":\"running\"}\n\nevent: job\ndata: {\"status\":\"done\"}\n\n" +
		"event: sweep\ndata: {\"status\":\"done\",\"done\":3}\n\n"
	if got := lastSweepStatus([]byte(stream)); got != "done" {
		t.Errorf("status = %q, want done", got)
	}
	if got := lastSweepStatus([]byte("event: job\ndata: {\"status\":\"done\"}\n")); got != "" {
		t.Errorf("job events set the sweep status to %q", got)
	}
}

func TestPromValue(t *testing.T) {
	text := "# TYPE x histogram\nallarm_job_queue_wait_seconds_bucket{le=\"1\"} 3\n" +
		"allarm_job_queue_wait_seconds_sum 0.25\nallarm_job_queue_wait_seconds_count 4\n"
	if s, n := promValue(text, "allarm_job_queue_wait_seconds_sum"), promValue(text, "allarm_job_queue_wait_seconds_count"); s != 0.25 || n != 4 {
		t.Errorf("sum %g count %g, want 0.25 and 4", s, n)
	}
	if v := promValue(text, "absent"); v != 0 {
		t.Errorf("absent series = %g", v)
	}
}
