package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed stage of a pipeline run. Spans form a tree: Start
// creates a child, End freezes the duration, SetAttr records per-span
// attributes (rows loaded, cache hits, retries). All methods are safe for
// concurrent use and are no-ops on a nil *Span, so untraced code paths pass
// nil spans around for free.
type Span struct {
	mu       sync.Mutex
	name     string
	parent   *Span
	start    time.Time
	end      time.Time // zero while the span is open; guarded by mu
	children []*Span   // guarded by mu
	attrs    []Field   // guarded by mu
}

// StartTrace begins a new root span.
func StartTrace(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Start begins a child span. Returns nil (a valid no-op span) when s is nil.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, parent: s, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// End freezes the span's duration. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr records (or replaces) one attribute on the span.
func (s *Span) SetAttr(key string, val interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, Field{Key: key, Val: val})
}

// Duration returns end-start, or the running duration for an open span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanInfo is one span flattened for storage: the row shape of the
// build_trace relation and the /metrics stage gauges.
type SpanInfo struct {
	Name       string
	Parent     string  // "" for the root
	Depth      int     // 0 for the root
	StartMs    float64 // offset from the root's start
	DurationMs float64
	Attrs      []Field
}

// Flatten returns the tree in pre-order as SpanInfo rows.
func (s *Span) Flatten() []SpanInfo {
	if s == nil {
		return nil
	}
	var out []SpanInfo
	s.flatten(&out, "", 0, s.startTime())
	return out
}

func (s *Span) startTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

func (s *Span) flatten(out *[]SpanInfo, parent string, depth int, epoch time.Time) {
	s.mu.Lock()
	info := SpanInfo{
		Name:       s.name,
		Parent:     parent,
		Depth:      depth,
		StartMs:    durMs(s.start.Sub(epoch)),
		DurationMs: durMs(s.lockedDuration()),
		Attrs:      append([]Field{}, s.attrs...),
	}
	children := append([]*Span{}, s.children...)
	s.mu.Unlock()
	*out = append(*out, info)
	for _, c := range children {
		c.flatten(out, info.Name, depth+1, epoch)
	}
}

func (s *Span) lockedDuration() time.Duration {
	//lint:ignore guardedby callers hold s.mu (the locked* naming convention)
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	//lint:ignore guardedby callers hold s.mu (the locked* naming convention)
	return s.end.Sub(s.start)
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanJSON is the serialized span-tree node.
type spanJSON struct {
	Name       string                 `json:"name"`
	StartMs    float64                `json:"start_ms"`
	DurationMs float64                `json:"duration_ms"`
	Attrs      map[string]interface{} `json:"attrs,omitempty"`
	Children   []spanJSON             `json:"children,omitempty"`
}

func (s *Span) toJSON(epoch time.Time) spanJSON {
	s.mu.Lock()
	node := spanJSON{
		Name:       s.name,
		StartMs:    durMs(s.start.Sub(epoch)),
		DurationMs: durMs(s.lockedDuration()),
	}
	if len(s.attrs) > 0 {
		node.Attrs = make(map[string]interface{}, len(s.attrs))
		for _, f := range s.attrs {
			node.Attrs[f.Key] = normalizeAttr(f.Val)
		}
	}
	children := append([]*Span{}, s.children...)
	s.mu.Unlock()
	for _, c := range children {
		node.Children = append(node.Children, c.toJSON(epoch))
	}
	return node
}

// normalizeAttr keeps span attributes JSON-marshalable.
func normalizeAttr(v interface{}) interface{} {
	switch x := v.(type) {
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	default:
		if _, err := json.Marshal(v); err != nil {
			return fmt.Sprint(v)
		}
		return v
	}
}

// WriteJSON serializes the span tree as indented JSON.
func (s *Span) WriteJSON(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.toJSON(s.startTime()))
}

// Summary writes a human-readable timing tree: one line per span with its
// duration, share of the root's wall time, and attributes.
func (s *Span) Summary(w io.Writer) {
	if s == nil {
		return
	}
	infos := s.Flatten()
	if len(infos) == 0 {
		return
	}
	total := infos[0].DurationMs
	nameWidth := 0
	for _, si := range infos {
		if n := 2*si.Depth + len(si.Name); n > nameWidth {
			nameWidth = n
		}
	}
	for _, si := range infos {
		pct := 0.0
		if total > 0 {
			pct = 100 * si.DurationMs / total
		}
		indent := ""
		for i := 0; i < si.Depth; i++ {
			indent += "  "
		}
		fmt.Fprintf(w, "%-*s %10.3fms %6.1f%%", nameWidth, indent+si.Name, si.DurationMs, pct)
		if len(si.Attrs) > 0 {
			fmt.Fprintf(w, "  %s", FormatFields(si.Attrs))
		}
		fmt.Fprintln(w)
	}
}

// Stages returns the root's direct children as (name, seconds) pairs sorted
// by name — the igdb_build_stage_seconds metric series.
func (s *Span) Stages() []StageTiming {
	var out []StageTiming
	for _, si := range s.Flatten() {
		if si.Depth == 1 {
			out = append(out, StageTiming{Name: si.Name, Seconds: si.DurationMs / 1000})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StageTiming is one top-level stage's wall time.
type StageTiming struct {
	Name    string
	Seconds float64
}
