package core

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestBuildTraceRecorded: every build records a span tree and persists it
// into the SQL-queryable build_trace relation, one row per span.
func TestBuildTraceRecorded(t *testing.T) {
	_, g := testDB(t)
	if g.BuildTrace == nil {
		t.Fatal("BuildTrace is nil after a default build")
	}
	infos := g.BuildTrace.Flatten()
	tb := g.Rel.Table("build_trace")
	if tb == nil {
		t.Fatal("build_trace relation missing")
	}
	if tb.Len() != len(infos) {
		t.Fatalf("build_trace has %d rows, span tree has %d spans", tb.Len(), len(infos))
	}
	if infos[0].Name != "build" || infos[0].Parent != "" || infos[0].Depth != 0 {
		t.Fatalf("root span = %+v, want name=build parent='' depth=0", infos[0])
	}

	// Every loader must have a load/<source> stage at depth 1.
	stages := map[string]bool{}
	for _, si := range infos {
		if si.Depth == 1 {
			stages[si.Name] = true
		}
	}
	for _, l := range loaders {
		if !stages["load/"+l.source] {
			t.Errorf("no load/%s stage in the trace", l.source)
		}
	}
	for _, want := range []string{"schema", "source_status", "infer_standard_paths", "path_network"} {
		if !stages[want] {
			t.Errorf("no %s stage in the trace", want)
		}
	}

	// Stage durations cannot exceed the root's wall time.
	var sum float64
	for _, si := range infos {
		if si.DurationMs < 0 {
			t.Errorf("span %s has negative duration %g", si.Name, si.DurationMs)
		}
		if si.Depth == 1 {
			sum += si.DurationMs
		}
	}
	root := infos[0].DurationMs
	if sum > root*1.01 {
		t.Errorf("stage durations sum to %gms, exceeding root %gms", sum, root)
	}

	// The sub-stage spans land under their loader's span.
	parents := map[string]string{}
	for _, si := range infos {
		parents[si.Name] = si.Parent
	}
	for _, sub := range []string{"gazetteer", "voronoi", "right_of_way"} {
		if parents[sub] != "load/naturalearth" {
			t.Errorf("span %s has parent %q, want load/naturalearth", sub, parents[sub])
		}
	}
}

// TestBuildTraceSQLQueryable: one row per depth-1 stage comes back through
// plain SQL, with plausible durations.
func TestBuildTraceSQLQueryable(t *testing.T) {
	_, g := testDB(t)
	rows, err := g.Rel.Query(`SELECT span, duration_ms FROM build_trace WHERE depth = 1`)
	if err != nil {
		t.Fatal(err)
	}
	want := len(loaders) + 4 // load/* plus schema, source_status, infer_standard_paths, path_network
	if rows.Len() != want {
		t.Fatalf("depth-1 build_trace rows = %d, want %d", rows.Len(), want)
	}
	for _, r := range rows.Rows {
		name, _ := r[0].AsText()
		ms, ok := r[1].AsFloat()
		if !ok || ms < 0 {
			t.Errorf("stage %s has bad duration %v", name, r[1])
		}
	}
}

// TestBuildTraceHeap: every depth-1 stage, and the gazetteer, voronoi and
// right_of_way sub-stages, records the heap in use at its end as heap_mb.
func TestBuildTraceHeap(t *testing.T) {
	_, g := testDB(t)
	rows, err := g.Rel.Query(`SELECT span, depth, attrs FROM build_trace WHERE depth = 1 OR span IN ('gazetteer', 'voronoi', 'right_of_way')`)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(loaders) + 4 + 3; rows.Len() != want {
		t.Fatalf("got %d stage rows, want %d", rows.Len(), want)
	}
	for _, r := range rows.Rows {
		name, _ := r[0].AsText()
		attrs, _ := r[2].AsText()
		mb := -1.0
		for _, kv := range strings.Fields(attrs) {
			if v, ok := strings.CutPrefix(kv, "heap_mb="); ok {
				mb, _ = strconv.ParseFloat(v, 64)
			}
		}
		if mb <= 0 {
			t.Errorf("stage %s: attrs %q carry no positive heap_mb", name, attrs)
		}
	}
}

// TestBuildTraceStages: the Stages() view the /metrics exporter consumes
// matches the depth-1 spans.
func TestBuildTraceStages(t *testing.T) {
	_, g := testDB(t)
	st := g.BuildTrace.Stages()
	if len(st) != len(loaders)+4 {
		t.Fatalf("Stages() = %d entries, want %d", len(st), len(loaders)+4)
	}
	var loads int
	for _, s := range st {
		if s.Seconds < 0 {
			t.Errorf("stage %s has negative seconds", s.Name)
		}
		if strings.HasPrefix(s.Name, "load/") {
			loads++
		}
	}
	if loads != len(loaders) {
		t.Errorf("Stages() has %d load/* entries, want %d", loads, len(loaders))
	}
}

// TestSourceStatusLoadTime: per-source load wall time is recorded both on
// the struct and in the source_status relation's load_ms column.
func TestSourceStatusLoadTime(t *testing.T) {
	_, g := testDB(t)
	if len(g.SourceStatus) == 0 {
		t.Fatal("no SourceStatus entries")
	}
	var total time.Duration
	for _, st := range g.SourceStatus {
		if st.LoadTime < 0 {
			t.Errorf("source %s has negative LoadTime", st.Source)
		}
		total += st.LoadTime
	}
	if total == 0 {
		t.Error("every SourceStatus.LoadTime is zero; load wall time was lost")
	}
	rows, err := g.Rel.Query(`SELECT source, load_ms FROM source_status`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != len(g.SourceStatus) {
		t.Fatalf("source_status rows = %d, want %d", rows.Len(), len(g.SourceStatus))
	}
	for _, r := range rows.Rows {
		src, _ := r[0].AsText()
		ms, ok := r[1].AsFloat()
		if !ok || ms < 0 {
			t.Errorf("source %s has bad load_ms %v", src, r[1])
		}
	}
}
