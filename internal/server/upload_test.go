package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// allocatedBy returns the bytes allocated while fn runs.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadBodyPresize: a body is read into one buffer sized from its
// Content-Length, but a declared length above the 1 MiB clamp buys no
// more than the clamp before the bytes arrive.
func TestReadBodyPresize(t *testing.T) {
	body := strings.Repeat("x", 300<<10)
	req := httptest.NewRequest(http.MethodPost, "/v1/traces", strings.NewReader(body))
	var data []byte
	var err error
	grew := allocatedBy(func() { data, err = ReadBody(httptest.NewRecorder(), req, maxTraceBytes) })
	if err != nil || string(data) != body {
		t.Fatalf("read %d bytes, %v", len(data), err)
	}
	if limit := uint64(len(body) + 64<<10); grew > limit {
		t.Errorf("reading a %d-byte body allocated %d bytes, want <= %d (one presized buffer)", len(body), grew, limit)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/traces", strings.NewReader("short"))
	req.ContentLength = 48 << 20
	grew = allocatedBy(func() { data, err = ReadBody(httptest.NewRecorder(), req, maxTraceBytes) })
	if err != nil || string(data) != "short" {
		t.Fatalf("read %q, %v", data, err)
	}
	if limit := uint64(maxBodyPresize + 256<<10); grew > limit {
		t.Errorf("a 48 MiB declared length allocated %d bytes up front, want <= %d", grew, limit)
	}
}

// TestTraceUploadBodyBounds: an upload that declares far more than it
// sends fails cleanly with 400 having allocated at most the presize
// clamp, and a body over maxTraceBytes still gets 400.
func TestTraceUploadBodyBounds(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()

	// The client declares 48 MiB, sends a few bytes, then the
	// connection drops.
	req := httptest.NewRequest(http.MethodPost, "/v1/traces",
		io.MultiReader(strings.NewReader("ALTR\x02\x00"), iotest.ErrReader(io.ErrUnexpectedEOF)))
	req.ContentLength = 48 << 20
	rec := httptest.NewRecorder()
	grew := allocatedBy(func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "reading trace") {
		t.Errorf("truncated upload: status %d: %s", rec.Code, rec.Body)
	}
	if max := uint64(maxBodyPresize + 512<<10); grew > max {
		t.Errorf("truncated upload declaring 48 MiB allocated %d bytes, want <= %d", grew, max)
	}

	// One byte over the bound, of unknown length up front.
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
