package allarm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	allarm "allarm"
)

// FuzzRecordCodec checks the Record wire codec against encoding/json.
// The fields of one Record come from the fuzz inputs (ints feeds the
// integer fields in order; metrics attaches RecordMetrics): NDJSONEmitter
// must write exactly json.Encoder's bytes, or fail exactly as it does,
// and the line it writes must read back as json.Unmarshal reads it —
// through the canonical-form scanner whenever the line has no escape.
// lines is fed to ReadRecords as an arbitrary NDJSON stream.
func FuzzRecordCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, benchmark, policy, errText string, ints []byte,
		aborted, metrics bool, runtimeNs, nocEnergyPJ, pfEnergyPJ float64, lines []byte) {
		src := intSource(ints)
		rec := allarm.Record{
			Benchmark: benchmark, Policy: policy,
			Threads: src.int(), Copies: src.int(), PFKiB: src.int(), Seed: src.next(),
			Error: errText, Aborted: aborted,
		}
		if metrics {
			rec.RecordMetrics = &allarm.RecordMetrics{
				RuntimeNs: runtimeNs, Accesses: src.next(), PFAllocs: src.next(),
				PFEvictions: src.next(), EvictionMsgs: src.next(), L2Misses: src.next(),
				NoCBytes: src.next(), NoCMessages: src.next(), LocalRequests: src.next(),
				RemoteRequests: src.next(), LocalProbes: src.next(), ProbesHidden: src.next(),
				UntrackedGrants: src.next(), UncachedGrants: src.next(),
				NoCEnergyPJ: nocEnergyPJ, PFEnergyPJ: pfEnergyPJ,
			}
		}
		var want, got bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(rec)
		gotErr := (allarm.NDJSONEmitter{}).EmitRecords(&got, []allarm.Record{rec})
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("emit error %v, json.Encoder %v", gotErr, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("NDJSON differs from json.Encoder:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
		if gotErr == nil {
			line := bytes.TrimSuffix(got.Bytes(), []byte("\n"))
			var fast allarm.Record
			if !bytes.Contains(line, []byte(`\`)) && !allarm.ParseRecord(line, &fast) {
				t.Fatalf("canonical line refused by the scanner: %q", line)
			}
			checkReadRecords(t, got.Bytes())
		}
		checkReadRecords(t, lines)
	})
}

// checkReadRecords compares ReadRecords on data with json.Unmarshal on
// each of its non-empty lines, and the canonical-form scanner with
// json.Unmarshal on every line the scanner accepts.
func checkReadRecords(t *testing.T, data []byte) {
	t.Helper()
	var want []allarm.Record
	var wantErr error
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		var rec allarm.Record
		err := json.Unmarshal(line, &rec)
		var fast allarm.Record
		if allarm.ParseRecord(line, &fast) && (err != nil || !sameRecord(fast, rec)) {
			t.Fatalf("scanner accepted %q as %+v; json.Unmarshal: %+v, %v", line, fast, rec, err)
		}
		if err != nil {
			if wantErr == nil {
				wantErr = err
			}
			continue
		}
		want = append(want, rec)
	}
	got, err := allarm.ReadRecords(bytes.NewReader(data))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("ReadRecords(%q) error %v, json.Unmarshal %v", data, err, wantErr)
	}
	if err == nil && (len(got) != len(want) || !allSame(got, want)) {
		t.Fatalf("ReadRecords(%q) = %+v, json.Unmarshal %+v", data, got, want)
	}
}

// sameRecord compares two Records field for field (metrics present on
// both or neither) and by their JSON encoding, which also tells -0 from
// 0.
func sameRecord(a, b allarm.Record) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
}

func allSame(a, b []allarm.Record) bool {
	for i := range a {
		if !sameRecord(a[i], b[i]) {
			return false
		}
	}
	return true
}

// gatherRecords is one sweep-fleet gather: the eight presets and one
// uploaded trace under three policies at four probe-filter sizes, 108
// successful records with metrics of realistic magnitude.
func gatherRecords() []allarm.Record {
	rng := rand.New(rand.NewSource(1))
	workloads := append(allarm.Benchmarks(), "tr-4f2b9c61d0e87a35b4c6d9e0f1a2b3c4d5e6f708192a3b4c5d6e7f8091a2b3c4")
	var recs []allarm.Record
	for _, wl := range workloads {
		for _, policy := range []string{"baseline", "allarm", "allarm-hyst"} {
			for _, pf := range []int{32, 64, 128, 256} {
				u := func(max int) uint64 { return uint64(rng.Intn(max)) }
				recs = append(recs, allarm.Record{
					Benchmark: wl, Policy: policy, Threads: 8, PFKiB: pf, Seed: 3,
					RecordMetrics: &allarm.RecordMetrics{
						RuntimeNs: float64(rng.Intn(1<<24)) / 4, Accesses: 4000,
						PFAllocs: u(4000), PFEvictions: u(3000), EvictionMsgs: u(9000),
						L2Misses: u(4000), NoCBytes: u(1 << 20), NoCMessages: u(20000),
						LocalRequests: u(3000), RemoteRequests: u(3000), LocalProbes: u(500),
						ProbesHidden: u(500), UntrackedGrants: u(2000), UncachedGrants: u(100),
						NoCEnergyPJ: rng.Float64() * 1e6, PFEnergyPJ: rng.Float64() * 1e5,
					},
				})
			}
		}
	}
	return recs
}

func BenchmarkNDJSONEmitRecords(b *testing.B) {
	recs := gatherRecords()
	b.ReportAllocs()
	for b.Loop() {
		if err := (allarm.NDJSONEmitter{}).EmitRecords(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadRecords(b *testing.B) {
	recs := gatherRecords()
	var buf bytes.Buffer
	if err := (allarm.NDJSONEmitter{}).EmitRecords(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		got, err := allarm.ReadRecords(bytes.NewReader(data))
		if err != nil || len(got) != len(recs) {
			b.Fatalf("%d records, %v", len(got), err)
		}
	}
}
