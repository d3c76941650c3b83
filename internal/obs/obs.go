// Package obs is iGDB's zero-dependency observability layer: leveled
// structured logging (key=value text or JSON lines) and in-process span
// tracing for the build pipeline. Everything is stdlib-only and safe for
// concurrent use; a nil *Logger and a nil *Span are valid no-op receivers,
// so call sites never need nil checks and untraced code paths pay nothing
// but a pointer test.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. Records below the logger's level are dropped.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the conventional lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel resolves a level name ("debug", "info", "warn"/"warning",
// "error"); unknown names default to info.
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Field is one key/value attribute of a log record or span.
type Field struct {
	Key string
	Val interface{}
}

// F constructs a Field.
func F(key string, val interface{}) Field { return Field{Key: key, Val: val} }

// Logger emits structured records to a writer. Methods are safe for
// concurrent use, and all methods on a nil *Logger are no-ops.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer        // the sink; guarded by mu
	json  bool             // JSON lines instead of key=value text; guarded by mu
	level Level            // minimum level emitted; guarded by mu
	now   func() time.Time // injectable clock (tests); guarded by mu
}

// New returns a text-mode Logger at LevelInfo writing to w.
func New(w io.Writer) *Logger {
	return &Logger{w: w, level: LevelInfo, now: time.Now}
}

// FromEnv returns a Logger writing to w configured by IGDB_LOG_FORMAT
// ("json" or "text", default text) and IGDB_LOG_LEVEL (default info).
func FromEnv(w io.Writer) *Logger {
	l := New(w)
	if strings.EqualFold(os.Getenv("IGDB_LOG_FORMAT"), "json") {
		l.json = true
	}
	if lv := os.Getenv("IGDB_LOG_LEVEL"); lv != "" {
		l.level = ParseLevel(lv)
	}
	return l
}

// SetJSON switches between JSON-lines and key=value text output.
func (l *Logger) SetJSON(on bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.json = on
	l.mu.Unlock()
}

// Debug emits a debug-level record.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info emits an info-level record.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn emits a warn-level record.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error emits an error-level record.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

func (l *Logger) log(v Level, msg string, fields []Field) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if v < l.level {
		return
	}
	var line string
	if l.json {
		line = renderJSON(l.stamp(), v, msg, fields)
	} else {
		line = renderText(l.stamp(), v, msg, fields)
	}
	if l.w != nil {
		fmt.Fprintln(l.w, line)
	}
}

// stamp returns the record timestamp. Called from log with l.mu already
// held.
func (l *Logger) stamp() string {
	//lint:ignore guardedby the only caller (log) holds l.mu
	now := l.now
	if now == nil {
		now = time.Now
	}
	return now().UTC().Format("2006-01-02T15:04:05.000Z")
}

// renderText emits ts=... level=... msg=... k=v ... with quoting only where
// needed, so lines stay grep-friendly.
func renderText(ts string, v Level, msg string, fields []Field) string {
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(ts)
	b.WriteString(" level=")
	b.WriteString(v.String())
	b.WriteString(" msg=")
	b.WriteString(quoteValue(msg))
	for _, f := range fields {
		writeTextField(&b, f)
	}
	return b.String()
}

func writeTextField(b *strings.Builder, f Field) {
	b.WriteByte(' ')
	b.WriteString(f.Key)
	b.WriteByte('=')
	b.WriteString(quoteValue(valueString(f.Val)))
}

// valueString renders a field value as text; errors and Stringers use their
// own rendering.
func valueString(v interface{}) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case string:
		return x
	case error:
		return x.Error()
	case fmt.Stringer:
		return x.String()
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	default:
		return fmt.Sprint(v)
	}
}

// quoteValue quotes s only when it contains whitespace, quotes, '=', or
// control characters.
func quoteValue(s string) string {
	if s == "" {
		return `""`
	}
	if strings.IndexFunc(s, func(r rune) bool {
		return r <= ' ' || r == '"' || r == '=' || r == 0x7f
	}) < 0 {
		return s
	}
	return strconv.Quote(s)
}

// renderJSON emits one JSON object per record with fields in call order.
func renderJSON(ts string, v Level, msg string, fields []Field) string {
	var b strings.Builder
	b.WriteString(`{"ts":`)
	b.WriteString(strconv.Quote(ts))
	b.WriteString(`,"level":`)
	b.WriteString(strconv.Quote(v.String()))
	b.WriteString(`,"msg":`)
	b.WriteString(strconv.Quote(msg))
	seen := map[string]bool{"ts": true, "level": true, "msg": true}
	for _, f := range fields {
		writeJSONField(&b, f, seen)
	}
	b.WriteByte('}')
	return b.String()
}

func writeJSONField(b *strings.Builder, f Field, seen map[string]bool) {
	if seen[f.Key] {
		return // first occurrence wins; duplicates would break parsers
	}
	seen[f.Key] = true
	b.WriteByte(',')
	b.WriteString(strconv.Quote(f.Key))
	b.WriteByte(':')
	switch x := f.Val.(type) {
	case error:
		b.WriteString(mustJSON(x.Error()))
	case time.Duration:
		// json.Marshal would emit raw nanoseconds; "158ms" matches text mode.
		b.WriteString(mustJSON(x.String()))
	default:
		b.WriteString(mustJSON(f.Val))
	}
}

// mustJSON marshals v, falling back to its fmt rendering on failure (e.g.
// channels, NaN) so a record is never lost to one odd value.
func mustJSON(v interface{}) string {
	raw, err := json.Marshal(v)
	if err != nil {
		// Marshaling a plain string cannot fail, so this second error
		// branch is unreachable; it exists so no error is ever dropped.
		raw, err = json.Marshal(fmt.Sprint(v))
		if err != nil {
			return `"unserializable"`
		}
	}
	return string(raw)
}

// FormatFields renders fields as one "k=v k=v" string — the attrs column of
// the build_trace relation.
func FormatFields(fields []Field) string {
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(quoteValue(valueString(f.Val)))
	}
	return b.String()
}
