package render

import (
	"bytes"
	"encoding/json"
	"testing"

	"igdb/internal/geo"
	"igdb/internal/reldb"
	"igdb/internal/wkt"
)

func TestFeatureWriterFraming(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteFeatures(&buf, func(add func(wkt.Geometry, map[string]any) error) error {
		if err := add(wkt.NewPoint(geo.Point{Lon: 1, Lat: 2}), map[string]any{"name": "a"}); err != nil {
			return err
		}
		return add(wkt.NewPoint(geo.Point{Lon: 3, Lat: 4}), nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	var doc struct {
		Type     string `json:"type"`
		Features []struct {
			Type       string                 `json:"type"`
			Properties map[string]interface{} `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid streamed JSON: %v\n%s", err, buf.String())
	}
	if doc.Type != "FeatureCollection" || len(doc.Features) != 2 {
		t.Fatalf("bad document: %s", buf.String())
	}
	if doc.Features[0].Properties["name"] != "a" {
		t.Fatalf("properties lost: %v", doc.Features[0].Properties)
	}
}

func TestFeatureWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFeatures(&buf, func(func(wkt.Geometry, map[string]any) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != `{"type":"FeatureCollection","features":[]}` {
		t.Fatalf("empty collection = %s", got)
	}
}

func TestLayerFeatures(t *testing.T) {
	db := reldb.New()
	db.MustExec(`CREATE TABLE phys_nodes (node_name TEXT, organization TEXT, metro TEXT,
		state_province TEXT, country TEXT, latitude REAL, longitude REAL, source TEXT, as_of_date TEXT)`)
	db.MustExec(`INSERT INTO phys_nodes VALUES ('n1', 'OrgA', 'Metro-US', 'TX', 'US', 30.0, -97.0, 'atlas', 'latest')`)
	db.MustExec(`CREATE TABLE std_paths (from_metro TEXT, from_state TEXT, from_country TEXT,
		to_metro TEXT, to_state TEXT, to_country TEXT, distance_km REAL, path_wkt TEXT, as_of_date TEXT)`)
	db.MustExec(`INSERT INTO std_paths VALUES ('A', '', 'US', 'B', '', 'US', 12.5, 'LINESTRING (0 0, 1 1)', 'latest')`)
	db.MustExec(`INSERT INTO std_paths VALUES ('A', '', 'US', 'C', '', 'US', 9.0, 'not wkt', 'latest')`)

	var buf bytes.Buffer
	n, err := WriteLayerGeoJSON(&buf, db, "phys_nodes")
	if err != nil || n != 1 {
		t.Fatalf("phys_nodes: n=%d err=%v", n, err)
	}
	// The bad-WKT row is skipped, not an error.
	buf.Reset()
	n, err = WriteLayerGeoJSON(&buf, db, "std_paths")
	if err != nil || n != 1 {
		t.Fatalf("std_paths: n=%d err=%v", n, err)
	}
	// An unknown layer fails, and what was written is still a complete,
	// empty FeatureCollection.
	buf.Reset()
	if _, err := WriteLayerGeoJSON(&buf, db, "nope"); err == nil {
		t.Fatal("unknown layer should error")
	}
	if got := buf.String(); got != `{"type":"FeatureCollection","features":[]}` {
		t.Fatalf("unknown layer wrote %q, want an empty FeatureCollection", got)
	}
}

func TestLayersList(t *testing.T) {
	ls := Layers()
	if len(ls) != 5 || ls[0] != "phys_nodes" {
		t.Fatalf("Layers() = %v", ls)
	}
	ls[0] = "mutated"
	if Layers()[0] != "phys_nodes" {
		t.Fatal("Layers() returned aliased slice")
	}
}
