package fleet

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"allarm/internal/obs"
	"allarm/internal/server"
)

// shardSweepIDs lists the sweeps a shard holds.
func shardSweepIDs(t *testing.T, sh *testShard) []string {
	t.Helper()
	resp, body := get(t, sh.url+"/v1/sweeps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard list: status %d: %s", resp.StatusCode, body)
	}
	var views []server.SweepView
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(views))
	for i, v := range views {
		ids[i] = v.ID
	}
	return ids
}

func shardSweepsDeleted(t *testing.T, sh *testShard) uint64 {
	t.Helper()
	_, body := get(t, sh.url+"/metrics")
	var m server.Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m.SweepsDeleted
}

func deleteSweep(t *testing.T, url, requestID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, requestID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// hangDeletes is a router transport under which DELETEs to one shard
// never answer — a blackholed host — until the call's context ends.
type hangDeletes struct{ host atomic.Pointer[string] }

func (h *hangDeletes) RoundTrip(req *http.Request) (*http.Response, error) {
	if host := h.host.Load(); req.Method == http.MethodDelete && host != nil && req.URL.Host == *host {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestFleetDeleteReleasesShardSweeps: a router DELETE of a finished
// sweep also deletes its shard sub-sweeps, carrying the client's
// correlation id, so shards without a retention limit do not accumulate
// them — and a dead shard costs the DELETE at most one ShardTimeout,
// never its 204.
func TestFleetDeleteReleasesShardSweeps(t *testing.T) {
	t.Run("all shards up", func(t *testing.T) {
		_, base, shards := newTestFleet(t, 2, server.Options{Workers: 2}, Options{})
		sr := submit(t, base, bigRequest())
		if v := waitFleetDone(t, base, sr.ID); v.Status != StatusDone {
			t.Fatalf("sweep status %q, want done", v.Status)
		}
		held := make([][]string, len(shards))
		before := make([]uint64, len(shards))
		for i, sh := range shards {
			held[i] = shardSweepIDs(t, sh)
			before[i] = shardSweepsDeleted(t, sh)
		}
		if len(held[0])+len(held[1]) == 0 {
			t.Fatal("no shard holds a sub-sweep before the DELETE")
		}
		if resp := deleteSweep(t, base+sr.Status, "client-delete"); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE: status %d, want 204", resp.StatusCode)
		}
		for i, sh := range shards {
			if ids := shardSweepIDs(t, sh); len(ids) != 0 {
				t.Errorf("shard %d still lists %v after the router DELETE", i, ids)
			}
			if got := shardSweepsDeleted(t, sh) - before[i]; got != uint64(len(held[i])) {
				t.Errorf("shard %d: sweeps_deleted rose by %d, want %d", i, got, len(held[i]))
			}
			for _, id := range held[i] {
				if got := sh.requestIDs(http.MethodDelete, "/v1/sweeps/"+id); len(got) != 1 || got[0] != "client-delete" {
					t.Errorf("shard %d: DELETE of %s arrived with request ids %q, want [client-delete]", i, id, got)
				}
			}
		}
	})

	t.Run("one shard dead", func(t *testing.T) {
		const shardTimeout = 300 * time.Millisecond
		hang := &hangDeletes{}
		_, base, shards := newTestFleet(t, 2, server.Options{Workers: 2},
			Options{ShardTimeout: shardTimeout, Transport: hang})
		sr := submit(t, base, bigRequest())
		if v := waitFleetDone(t, base, sr.ID); v.Status != StatusDone {
			t.Fatalf("sweep status %q, want done", v.Status)
		}
		live, dead := shards[0], shards[1]
		if len(shardSweepIDs(t, live)) == 0 {
			live, dead = dead, live
		}
		host := dead.ts.Listener.Addr().String()
		hang.host.Store(&host)
		dead.kill()

		start := time.Now()
		if resp := deleteSweep(t, base+sr.Status, "client-delete"); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE: status %d, want 204", resp.StatusCode)
		}
		// One ShardTimeout for the hung call, plus scheduling slack.
		if took := time.Since(start); took > shardTimeout+time.Second {
			t.Errorf("DELETE took %s with a dead shard; ShardTimeout is %s", took, shardTimeout)
		}
		if ids := shardSweepIDs(t, live); len(ids) != 0 {
			t.Errorf("live shard still lists %v after the router DELETE", ids)
		}
	})
}
