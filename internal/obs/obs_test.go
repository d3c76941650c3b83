package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	t := time.Date(2026, 8, 6, 12, 0, 0, 123e6, time.UTC)
	return func() time.Time { return t }
}

func TestTextFormat(t *testing.T) {
	var buf strings.Builder
	l := New(&buf)
	l.now = fixedClock()
	l.Info("access", F("method", "POST"), F("path", "/sql?x=1 y"), F("status", 200), F("dur_ms", 1.25))
	got := strings.TrimSuffix(buf.String(), "\n")
	want := `ts=2026-08-06T12:00:00.123Z level=info msg=access method=POST path="/sql?x=1 y" status=200 dur_ms=1.25`
	if got != want {
		t.Fatalf("text record:\n got %q\nwant %q", got, want)
	}
}

func TestJSONFormat(t *testing.T) {
	var buf strings.Builder
	l := NewJSON(&buf)
	l.now = fixedClock()
	l.Error("boom", F("err", errors.New("it broke")), F("retries", 3), F("took", 158*time.Millisecond))
	var rec map[string]interface{}
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, buf.String())
	}
	for k, want := range map[string]interface{}{
		"ts": "2026-08-06T12:00:00.123Z", "level": "error", "msg": "boom",
		"err": "it broke", "retries": float64(3), "took": "158ms",
	} {
		if rec[k] != want {
			t.Errorf("rec[%q] = %v, want %v", k, rec[k], want)
		}
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf strings.Builder
	l := New(&buf)
	l.SetLevel(LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[1], "level=error") {
		t.Fatalf("filtered output = %q", buf.String())
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Fatal("Enabled disagrees with SetLevel")
	}
}

func TestWithFields(t *testing.T) {
	var buf strings.Builder
	l := New(&buf).With(F("component", "serve"))
	l.Info("ready", F("addr", ":8080"))
	if got := buf.String(); !strings.Contains(got, "component=serve addr=:8080") {
		t.Fatalf("With fields missing: %q", got)
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Info("ignored", F("k", "v"))
	l.SetLevel(LevelDebug)
	l.SetJSON(true)
	if l.With(F("a", 1)) != nil {
		t.Fatal("With on nil should stay nil")
	}
	if l.Enabled(LevelError) {
		t.Fatal("nil logger must report disabled")
	}
}

// countingWriter counts the lines written to it.
type countingWriter struct {
	mu sync.Mutex
	n  int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.n += strings.Count(string(p), "\n")
	w.mu.Unlock()
	return len(p), nil
}

func TestConcurrentLogging(t *testing.T) {
	var w countingWriter
	l := New(&w)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("m", F("j", j))
			}
		}()
	}
	wg.Wait()
	if w.n != 400 {
		t.Fatalf("records = %d, want 400", w.n)
	}
}

func TestFormatFields(t *testing.T) {
	got := FormatFields([]Field{F("rows", 42), F("status", "ok"), F("err", "bad thing")})
	if got != `rows=42 status=ok err="bad thing"` {
		t.Fatalf("FormatFields = %q", got)
	}
	if FormatFields(nil) != "" {
		t.Fatal("empty fields should render empty")
	}
}
