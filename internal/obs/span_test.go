package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := StartTrace("build")
	a := root.Start("load")
	a.SetAttr("rows", 10)
	a.SetAttr("rows", 12) // replaces, not appends
	a.End()
	b := root.Start("infer")
	b.End()
	root.End()

	infos := root.Flatten()
	if len(infos) != 3 {
		t.Fatalf("flattened spans = %d, want 3", len(infos))
	}
	if infos[0].Name != "build" || infos[0].Parent != "" || infos[0].Depth != 0 {
		t.Fatalf("root info = %+v", infos[0])
	}
	if infos[1].Name != "load" || infos[1].Parent != "build" || infos[1].Depth != 1 {
		t.Fatalf("child info = %+v", infos[1])
	}
	if len(infos[1].Attrs) != 1 || infos[1].Attrs[0].Val != 12 {
		t.Fatalf("attrs = %+v", infos[1].Attrs)
	}
	// Children are disjoint sequential stages: their durations cannot
	// exceed the root's.
	if infos[1].DurationMs+infos[2].DurationMs > infos[0].DurationMs+0.001 {
		t.Fatalf("children (%g + %g ms) exceed root (%g ms)",
			infos[1].DurationMs, infos[2].DurationMs, infos[0].DurationMs)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	s := StartTrace("x")
	time.Sleep(time.Millisecond)
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Fatal("second End moved the end time")
	}
	if d <= 0 {
		t.Fatal("duration not positive")
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	child := s.Start("child")
	if child != nil {
		t.Fatal("Start on nil must return nil")
	}
	child.SetAttr("k", 1)
	child.End()
	if s.Duration() != 0 || s.Flatten() != nil {
		t.Fatal("nil span accessors must be zero-valued")
	}
	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s.Summary(&buf)
}

func TestSpanJSON(t *testing.T) {
	root := StartTrace("build")
	c := root.Start("load/atlas")
	c.SetAttr("rows", 99)
	c.SetAttr("err", nil)
	c.End()
	root.End()
	var buf strings.Builder
	if err := root.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name       string  `json:"name"`
		DurationMs float64 `json:"duration_ms"`
		Children   []struct {
			Name  string                 `json:"name"`
			Attrs map[string]interface{} `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("span JSON invalid: %v\n%s", err, buf.String())
	}
	if doc.Name != "build" || len(doc.Children) != 1 || doc.Children[0].Name != "load/atlas" {
		t.Fatalf("span JSON = %s", buf.String())
	}
	if doc.Children[0].Attrs["rows"] != float64(99) {
		t.Fatalf("attrs = %v", doc.Children[0].Attrs)
	}
}

func TestSpanSummaryAndStages(t *testing.T) {
	root := StartTrace("build")
	s1 := root.Start("zeta")
	s1.SetAttr("rows", 1)
	s1.End()
	s2 := root.Start("alpha")
	sub := s2.Start("voronoi")
	sub.End()
	s2.End()
	root.End()

	var buf strings.Builder
	root.Summary(&buf)
	out := buf.String()
	for _, want := range []string{"build", "zeta", "alpha", "voronoi", "rows=1", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	stages := root.Stages()
	if len(stages) != 2 || stages[0].Name != "alpha" || stages[1].Name != "zeta" {
		t.Fatalf("stages = %+v", stages)
	}
}

func TestSpanConcurrency(t *testing.T) {
	root := StartTrace("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Start("worker")
			sp.SetAttr("i", i)
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(root.Flatten()); got != 9 {
		t.Fatalf("spans = %d, want 9", got)
	}
}

func TestSpanAddTimed(t *testing.T) {
	root := StartTrace("sql")
	t0 := time.Now()
	child := root.AddTimed("scan", t0, 42*time.Millisecond, Field{Key: "rows_out", Val: 7})
	grand := child.AddTimed("probe", t0, 5*time.Millisecond)
	if grand == nil {
		t.Fatal("AddTimed on a timed child returned nil")
	}
	root.End()

	infos := root.Flatten()
	if len(infos) != 3 {
		t.Fatalf("flattened spans = %d, want 3", len(infos))
	}
	if infos[1].Name != "scan" || infos[1].Parent != "sql" {
		t.Fatalf("child info = %+v", infos[1])
	}
	if got := infos[1].DurationMs; got < 41.999 || got > 42.001 {
		t.Fatalf("child duration = %g ms, want exactly 42 (pre-measured)", got)
	}
	if len(infos[1].Attrs) != 1 || infos[1].Attrs[0].Key != "rows_out" {
		t.Fatalf("attrs = %+v", infos[1].Attrs)
	}
	if infos[2].Name != "probe" || infos[2].Depth != 2 {
		t.Fatalf("grandchild info = %+v", infos[2])
	}
	var nilSpan *Span
	if got := nilSpan.AddTimed("x", t0, time.Second); got != nil {
		t.Fatal("AddTimed on nil span must return nil")
	}
}
