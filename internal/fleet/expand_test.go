package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	allarm "allarm"
	"allarm/internal/server"
)

// fuzzTraceID names the one trace FuzzSweepRequest's lookup resolves.
const fuzzTraceID = "tr-fuzz"

// fuzzTraceLookup captures a tiny trace named fuzzTraceID and returns
// an ExpandSweep lookup that resolves only it.
func fuzzTraceLookup(tb testing.TB) func(id string) allarm.Workload {
	tb.Helper()
	wl, err := allarm.BenchmarkWorkload("barnes", 2, 4)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := allarm.CaptureTrace(&buf, wl, 1); err != nil {
		tb.Fatal(err)
	}
	trace, err := allarm.ReadTraceNamed(&buf, fuzzTraceID)
	if err != nil {
		tb.Fatal(err)
	}
	return func(id string) allarm.Workload {
		if id == fuzzTraceID {
			return trace
		}
		return nil
	}
}

// FuzzSweepRequest feeds arbitrary bytes through the router's submit
// path: decode, bounded expansion, and the sub-sweep JobSpec encoding.
// Expansion must fail cleanly or stay within MaxSweepJobs, and a shard
// re-expanding the encoded specs must compute the same Job.Key at every
// position — the invariant placement and the shard caches rest on.
func FuzzSweepRequest(f *testing.F) {
	lookup := fuzzTraceLookup(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req server.SweepRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		sweep, err := server.ExpandSweep(&req, lookup)
		if err != nil {
			return
		}
		if sweep.Len() == 0 || sweep.Len() > server.MaxSweepJobs {
			t.Fatalf("expanded to %d jobs (cap %d)", sweep.Len(), server.MaxSweepJobs)
		}
		if n, err := server.SweepJobCount(&req); err != nil || n != sweep.Len() {
			t.Fatalf("SweepJobCount = %d, %v; expansion has %d jobs", n, err, sweep.Len())
		}
		specs := buildSpecs(sweep, &req)
		shard, err := server.ExpandSweep(&server.SweepRequest{Jobs: specs, Config: req.Config}, lookup)
		if err != nil {
			t.Fatalf("shard rejects the router's specs %+v: %v", specs, err)
		}
		if shard.Len() != sweep.Len() {
			t.Fatalf("shard expansion has %d jobs, want %d", shard.Len(), sweep.Len())
		}
		for i := range sweep.Jobs {
			if got, want := shard.Jobs[i].Key(), sweep.Jobs[i].Key(); got != want {
				t.Fatalf("job %d: key drifted through the JobSpec round trip:\n got %s\nwant %s", i, got, want)
			}
		}
	})
}

// TestFleetBoundsExpansion: the router refuses a small request whose
// cross product is millions of jobs with 400, and an over-quota client
// with 403, both before expanding anything.
func TestFleetBoundsExpansion(t *testing.T) {
	guard, err := server.NewGuard([]server.ClientConfig{{Token: "tok-quota", Name: "quota", MaxJobs: 5}})
	if err != nil {
		t.Fatal(err)
	}
	_, base, _ := newTestFleet(t, 2, server.Options{Workers: 1}, Options{Guard: guard})

	cross := func(benches, pfs int) server.SweepRequest {
		req := server.SweepRequest{Policies: []string{"baseline", "allarm"}}
		for i := 0; i < benches; i++ {
			req.Benchmarks = append(req.Benchmarks, "barnes")
		}
		for i := 0; i < pfs; i++ {
			req.PFKiB = append(req.PFKiB, 64+i)
		}
		return req
	}
	post := func(req server.SweepRequest) (int, string, uint64) {
		t.Helper()
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.NewRequest("POST", base+"/v1/sweeps", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Authorization", "Bearer tok-quota")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		return resp.StatusCode, string(body), after.TotalAlloc - before.TotalAlloc
	}

	// 2000 × 2 × 2000 = 8M jobs.
	status, body, alloc := post(cross(2000, 2000))
	if status != http.StatusBadRequest || !strings.Contains(body, "split it") {
		t.Fatalf("8M-job request: status %d: %s", status, body)
	}
	if alloc > 8<<20 {
		t.Errorf("refusing the 8M-job request allocated %d MiB", alloc>>20)
	}
	// 16 × 2 × 2048 jobs sit at the cap but over the quota of 5.
	status, body, alloc = post(cross(16, server.MaxSweepJobs/32))
	if status != http.StatusForbidden {
		t.Fatalf("over-quota request: status %d: %s", status, body)
	}
	if alloc > 8<<20 {
		t.Errorf("refusing the over-quota request allocated %d MiB", alloc>>20)
	}
}
