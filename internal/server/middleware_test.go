package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"igdb/internal/obs"
)

func TestRequestIDProvided(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-42")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "caller-supplied-42" {
		t.Fatalf("X-Request-ID echoed %q, want caller-supplied-42", got)
	}
}

func TestRequestIDGenerated(t *testing.T) {
	s := newTestServer(t, Config{})
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		id := rec.Header().Get("X-Request-ID")
		if id == "" {
			t.Fatal("no X-Request-ID generated")
		}
		ids[id] = true
	}
	if len(ids) != 3 {
		t.Fatalf("generated IDs are not unique: %v", ids)
	}
}

func TestRequestIDTruncated(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", 500))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); len(got) != maxRequestIDLen {
		t.Fatalf("oversized request ID echoed with %d bytes, want %d", len(got), maxRequestIDLen)
	}
}

func TestRequestIDInErrorBody(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest("POST", "/sql", strings.NewReader(""))
	req.Header.Set("X-Request-ID", "err-req-7")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] != "err-req-7" {
		t.Fatalf("error body request_id = %q, want err-req-7", body["request_id"])
	}
	if body["error"] == "" {
		t.Fatal("error body lost its error message")
	}
}

// logLines decodes a JSON-mode log buffer into one map per line.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]interface{} {
	t.Helper()
	var out []map[string]interface{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// jsonLogger returns a JSON-lines logger writing to w.
func jsonLogger(w io.Writer) *obs.Logger {
	l := obs.New(w)
	l.SetJSON(true)
	return l
}

func TestAccessLogFields(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{Logger: jsonLogger(&buf)})
	buf.Reset() // drop build-time lines; only the access log matters here
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "log-req-1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	var access map[string]interface{}
	for _, m := range logLines(t, &buf) {
		if m["msg"] == "access" {
			access = m
			break
		}
	}
	if access == nil {
		t.Fatalf("no access log line in %q", buf.String())
	}
	want := map[string]string{
		"method": "GET", "path": "/healthz", "route": "/healthz", "request_id": "log-req-1",
	}
	for k, v := range want {
		if access[k] != v {
			t.Errorf("access log %s = %v, want %s", k, access[k], v)
		}
	}
	if status, ok := access["status"].(float64); !ok || int(status) != 200 {
		t.Errorf("access log status = %v, want 200", access["status"])
	}
	if _, ok := access["dur_ms"]; !ok {
		t.Error("access log missing dur_ms")
	}
	if access["level"] != "info" {
		t.Errorf("access log level = %v, want info", access["level"])
	}
}

func TestPanicRecoveryLogsRequestID(t *testing.T) {
	var buf bytes.Buffer
	s := &Server{
		cfg:     Config{RequestTimeout: time.Second},
		metrics: newMetrics(),
		sem:     make(chan struct{}, 1),
		logger:  jsonLogger(&buf),
	}
	h := s.wrap("/boom", true, func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	req := httptest.NewRequest("GET", "/boom", nil)
	req.Header.Set("X-Request-ID", "panic-req-9")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var found bool
	for _, m := range logLines(t, &buf) {
		if m["msg"] == "panic recovered" {
			found = true
			if m["request_id"] != "panic-req-9" {
				t.Errorf("panic log request_id = %v, want panic-req-9", m["request_id"])
			}
			if m["level"] != "error" {
				t.Errorf("panic log level = %v, want error", m["level"])
			}
			if s, _ := m["stack"].(string); !strings.Contains(s, "goroutine") {
				t.Error("panic log has no stack trace")
			}
		}
	}
	if !found {
		t.Fatalf("no panic-recovered log line in %q", buf.String())
	}
}

func TestPprofGating(t *testing.T) {
	off := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: status = %d, want 404", rec.Code)
	}

	on := newTestServer(t, Config{EnablePprof: true})
	rec = httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof with -pprof: status = %d, want 200", rec.Code)
	}
}
