package core

import (
	"strings"
	"testing"
	"time"

	"igdb/internal/ingest"
)

// corruptStore clones the small world's snapshots and replaces one file.
func corruptStore(t *testing.T, source, file string, data []byte) *ingest.Store {
	t.Helper()
	w, _ := testDB(t) // ensures smallWorld exists
	store := ingest.NewStore("")
	if err := ingest.Collect(w, store, time.Date(2026, 7, 3, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Latest(source, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	snap.Files[file] = data
	return store
}

// Build must fail loudly — never silently skip — when a snapshot is
// corrupt.
func TestBuildFailsOnCorruptSnapshots(t *testing.T) {
	cases := []struct {
		name   string
		source string
		file   string
		data   []byte
	}{
		{"atlas-bad-coords", "atlas", "nodes.csv",
			[]byte("network,node_name,city,state,country,latitude,longitude\nn,x,c,s,US,not-a-number,0\n")},
		{"peeringdb-bad-json", "peeringdb", "dump.json", []byte("{broken")},
		{"telegeography-bad-wkt", "telegeography", "cables.json",
			[]byte(`{"cables":[{"name":"x","wkt":"POINT (1 2)"}]}`)},
		{"asrank-bad-links", "asrank", "links.txt", []byte("1|2\n")},
		{"rdns-bad-ip", "rdns", "ptr.tsv", []byte("999.1.1.1\thost\n")},
		{"naturalearth-bad-places", "naturalearth", "places.csv",
			[]byte("name,adm1,iso_a2,latitude,longitude,pop_max\nX,,US,bad,0,100\n")},
		{"pch-bad-fields", "pch", "ixpdir.tsv", []byte("only\ttwo\n")},
		{"he-bad-member", "he", "exchanges.txt", []byte("IX: A (B, C)\n  ASxyz\n")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := corruptStore(t, c.source, c.file, c.data)
			_, err := Build(store, BuildOptions{SkipPolygons: true})
			if err == nil {
				t.Fatalf("Build succeeded despite corrupt %s/%s", c.source, c.file)
			}
		})
	}
}

// Missing snapshots are a build error, not a partial database.
func TestBuildFailsOnMissingSource(t *testing.T) {
	store := ingest.NewStore("")
	_, err := Build(store, BuildOptions{})
	if err == nil {
		t.Fatal("Build with an empty store must fail")
	}
	if !strings.Contains(err.Error(), "no snapshots") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// SkipPolygons builds no Thiessen diagram and leaves city_polygons empty.
func TestSkipPolygons(t *testing.T) {
	w, _ := testDB(t)
	store := ingest.NewStore("")
	if err := ingest.Collect(w, store, time.Date(2026, 7, 3, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	g, err := Build(store, BuildOptions{SkipPolygons: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Diagram != nil {
		t.Error("SkipPolygons ignored")
	}
	if rows := g.Rel.MustQuery(`SELECT COUNT(*) FROM city_polygons`); mustI(rows.Rows[0][0]) != 0 {
		t.Error("city_polygons populated despite SkipPolygons")
	}
}

func mustI(v interface{ AsInt() (int64, bool) }) int64 {
	n, _ := v.AsInt()
	return n
}
