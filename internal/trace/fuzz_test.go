package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes through NewReader and LoadReplay,
// the decoders both daemons run on uploaded traces. They must never
// panic; a trace they accept must be exactly a header, whole placements
// and whole records (so any truncation is an error), with every thread
// in range; what they allocate must be bounded by the input's size, not
// by the counts it declares; and an accepted trace re-captured and read
// back must give the same replay.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rp, err := load(data)
		runtime.ReadMemStats(&after)
		if grew, max := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(data)); grew > max {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), grew, max)
		}
		if err != nil {
			return
		}

		header, recBytes := 12, recordBytesV1
		if bytes.Equal(data[4:6], []byte{Version, 0}) {
			header, recBytes = 20, recordBytesV2
		}
		size := header + placementBytesV2*len(rp.placements) + recBytes*(rp.Records()+rp.WarmupRecords())
		if size != len(data) {
			t.Fatalf("accepted %d bytes but decoded %d bytes' worth", len(data), size)
		}
		if _, err := load(data[:len(data)-1]); err == nil {
			t.Fatal("accepted the trace with its last byte cut off")
		}
		for _, p := range rp.placements {
			if p.Thread < 0 || p.Thread >= rp.threads {
				t.Fatalf("placement thread %d of %d", p.Thread, rp.threads)
			}
		}

		var buf bytes.Buffer
		if _, err := Capture(&buf, rp, 0); err != nil {
			t.Fatalf("re-capturing an accepted trace: %v", err)
		}
		again, err := load(buf.Bytes())
		if err != nil {
			t.Fatalf("reading a re-captured trace: %v", err)
		}
		if !reflect.DeepEqual(again, rp) {
			t.Fatalf("re-captured replay differs:\n got %+v\nwant %+v", again, rp)
		}
	})
}

func load(data []byte) (*Replay, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return LoadReplay(r)
}
