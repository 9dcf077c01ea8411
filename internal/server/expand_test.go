package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// crossRequest is a request of benches × policies × pfs crossed jobs,
// built from repeated valid names so only its size can be wrong.
func crossRequest(benches, policies, pfs int) SweepRequest {
	req := SweepRequest{
		Benchmarks: make([]string, benches),
		Policies:   make([]string, policies),
		PFKiB:      make([]int, pfs),
	}
	for i := range req.Benchmarks {
		req.Benchmarks[i] = "barnes"
	}
	for i := range req.Policies {
		req.Policies[i] = "allarm"
	}
	for i := range req.PFKiB {
		req.PFKiB[i] = 64 + i
	}
	return req
}

// submitMeasured posts req with an optional bearer token and returns the
// status, the body, and how many bytes the whole process allocated
// while the request was served.
func submitMeasured(t *testing.T, url, token string, req SweepRequest) (int, []byte, uint64) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if token != "" {
		hr.Header.Set("Authorization", "Bearer "+token)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	return resp.StatusCode, body, after.TotalAlloc - before.TotalAlloc
}

// TestSweepJobCount: the count computed from list lengths equals the
// expanded sweep's size, and anything over MaxSweepJobs is refused.
func TestSweepJobCount(t *testing.T) {
	for _, req := range []SweepRequest{
		crossRequest(3, 0, 0),
		crossRequest(3, 2, 0),
		crossRequest(3, 0, 4),
		crossRequest(2, 3, 4),
		crossRequest(0, 3, 4),
		{Benchmarks: []string{"barnes"}, Jobs: []JobSpec{{Workload: "bench:x264"}, {Workload: "bench:dedup", PFKiB: 32}}},
	} {
		n, err := SweepJobCount(&req)
		if err != nil {
			t.Fatal(err)
		}
		if len(req.Benchmarks)+len(req.Jobs) == 0 {
			if n != 0 {
				t.Errorf("empty grid counted %d jobs", n)
			}
			continue
		}
		sweep, err := ExpandSweep(&req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != sweep.Len() {
			t.Errorf("counted %d jobs, expansion has %d", n, sweep.Len())
		}
	}
	for _, req := range []SweepRequest{
		crossRequest(2000, 2, 2000),
		crossRequest(MaxSweepJobs+1, 0, 0),
		crossRequest(1<<10, 1<<10, 1<<10),
		{Benchmarks: make([]string, MaxSweepJobs), Jobs: make([]JobSpec, 1)},
	} {
		if n, err := SweepJobCount(&req); err == nil {
			t.Errorf("request of %d×%d×%d+%d jobs accepted with count %d",
				len(req.Benchmarks), len(req.Policies), len(req.PFKiB), len(req.Jobs), n)
		}
	}
	at := crossRequest(16, 2, MaxSweepJobs/32)
	if n, err := SweepJobCount(&at); err != nil || n != MaxSweepJobs {
		t.Errorf("request at the cap: %d, %v", n, err)
	}
}

// TestSubmitBoundsExpansion: a small request whose cross product is
// millions of jobs is refused with 400 before it is expanded, and a
// quota-limited client is refused with 403 before expansion too.
func TestSubmitBoundsExpansion(t *testing.T) {
	g, err := NewGuard([]ClientConfig{{Token: "tok-quota", Name: "quota", MaxJobs: 5}})
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, Options{Workers: 1, Guard: g})

	// 2000 × 2 × 2000 = 8M jobs from a ~30 KB body.
	start := time.Now()
	status, body, alloc := submitMeasured(t, base+"/v1/sweeps", "tok-quota", crossRequest(2000, 2, 2000))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "split it") {
		t.Fatalf("8M-job request: status %d: %s", status, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("8M-job request took %s to refuse", took)
	}
	if alloc > 8<<20 {
		t.Errorf("refusing the 8M-job request allocated %d MiB", alloc>>20)
	}

	// At the cap the request is valid, but over the client's quota of 5:
	// expanding it first would allocate ~18 MiB of jobs.
	status, body, alloc = submitMeasured(t, base+"/v1/sweeps", "tok-quota", crossRequest(16, 2, MaxSweepJobs/32))
	if status != http.StatusForbidden {
		t.Fatalf("over-quota request: status %d: %s", status, body)
	}
	if alloc > 8<<20 {
		t.Errorf("refusing the over-quota request allocated %d MiB", alloc>>20)
	}
}
