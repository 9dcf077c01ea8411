package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"allarm/internal/server"
)

// TestRouterTraceUploadBodyBounds: the router reads uploads like the
// shards do. One that declares 48 MiB but sends a few bytes fails
// cleanly with 400 having allocated at most the 1 MiB presize clamp,
// and a body over maxTraceBytes still gets 400.
func TestRouterTraceUploadBodyBounds(t *testing.T) {
	rt, _, _ := newTestFleet(t, 1, server.Options{}, Options{})
	h := rt.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/traces",
		io.MultiReader(strings.NewReader("ALTR\x02\x00"), iotest.ErrReader(io.ErrUnexpectedEOF)))
	req.ContentLength = 48 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "reading trace") {
		t.Errorf("truncated upload: status %d: %s", rec.Code, rec.Body)
	}
	if grew, max := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512<<10); grew > max {
		t.Errorf("truncated upload declaring 48 MiB allocated %d bytes, want <= %d", grew, max)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/traces", io.LimitReader(zeros{}, maxTraceBytes+1))
	req.ContentLength = -1
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Errorf("oversized upload: status %d: %.200s", rec.Code, rec.Body)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
