package wkt

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"igdb/internal/geo"
)

func TestParsePoint(t *testing.T) {
	g, err := Parse("POINT (-3.7038 40.4168)")
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != KindPoint || g.Point.Lon != -3.7038 || g.Point.Lat != 40.4168 {
		t.Errorf("got %+v", g)
	}
}

func TestParseLineString(t *testing.T) {
	g, err := Parse("LINESTRING (0 0, 1 1, 2 0)")
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != KindLineString || len(g.Line) != 3 {
		t.Fatalf("got %+v", g)
	}
	if g.Line[2] != (geo.Point{Lon: 2, Lat: 0}) {
		t.Errorf("third point = %v", g.Line[2])
	}
}

func TestParsePolygonWithHole(t *testing.T) {
	g, err := Parse("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))")
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != KindPolygon || len(g.Rings) != 2 {
		t.Fatalf("got %+v", g)
	}
	if len(g.Rings[0]) != 5 || len(g.Rings[1]) != 5 {
		t.Errorf("ring lengths %d, %d", len(g.Rings[0]), len(g.Rings[1]))
	}
}

func TestParseMultiPointBothForms(t *testing.T) {
	a, err := Parse("MULTIPOINT ((1 2), (3 4))")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("MULTIPOINT (1 2, 3 4)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Errorf("forms disagree: %v vs %v", a.Points, b.Points)
	}
}

func TestParseMultiLineString(t *testing.T) {
	g, err := Parse("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Lines) != 2 || len(g.Lines[1]) != 3 {
		t.Errorf("got %+v", g.Lines)
	}
}

func TestParseMultiPolygon(t *testing.T) {
	g, err := Parse("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Polygons) != 2 {
		t.Errorf("got %d polygons", len(g.Polygons))
	}
}

func TestParseGeometryCollection(t *testing.T) {
	g, err := Parse("GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Geoms) != 2 || g.Geoms[0].Kind != KindPoint || g.Geoms[1].Kind != KindLineString {
		t.Errorf("got %+v", g.Geoms)
	}
}

func TestParseEmptyForms(t *testing.T) {
	for _, s := range []string{
		"POINT EMPTY", "LINESTRING EMPTY", "POLYGON EMPTY",
		"MULTIPOINT EMPTY", "MULTILINESTRING EMPTY", "MULTIPOLYGON EMPTY",
		"GEOMETRYCOLLECTION EMPTY",
	} {
		g, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if !g.Empty {
			t.Errorf("Parse(%q) not marked empty", s)
		}
		// Empty geometries round-trip.
		if got := Marshal(g); got != s {
			t.Errorf("Marshal(Parse(%q)) = %q", s, got)
		}
	}
}

func TestParseCaseInsensitiveAndWhitespace(t *testing.T) {
	g, err := Parse("  point(1   2)  ")
	if err != nil {
		t.Fatal(err)
	}
	if g.Point != (geo.Point{Lon: 1, Lat: 2}) {
		t.Errorf("got %v", g.Point)
	}
}

func TestParseScientificNotation(t *testing.T) {
	g, err := Parse("POINT (1e2 -2.5E-1)")
	if err != nil {
		t.Fatal(err)
	}
	if g.Point.Lon != 100 || g.Point.Lat != -0.25 {
		t.Errorf("got %v", g.Point)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"CIRCLE (1 2)",
		"POINT (1)",
		"POINT (1 2",
		"POINT (1 2) extra",
		"LINESTRING (1 2)",                     // too few points
		"POLYGON ((0 0, 1 0, 1 1))",            // too few ring points
		"POLYGON ((0 0, 1 0, 1 1, 2 2))",       // not closed
		"LINESTRING (a b, c d)",                // not numbers
		"GEOMETRYCOLLECTION (POINT (1 2)",      // unterminated
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0))", // unterminated
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	cases := []string{
		"POINT (-3.7038 40.4168)",
		"LINESTRING (0 0, 1 1, 2 0)",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
		"MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))",
		"GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
	}
	for _, s := range cases {
		g := MustParse(s)
		out := Marshal(g)
		g2 := MustParse(out)
		if !reflect.DeepEqual(g, g2) {
			t.Errorf("round trip of %q changed geometry", s)
		}
	}
}

func randomLine(r *rand.Rand, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			Lon: math.Round(r.Float64()*36000-18000) / 100,
			Lat: math.Round(r.Float64()*18000-9000) / 100,
		}
	}
	return pts
}

func TestRoundTripPropertyLineString(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 2 + r.Intn(20)
		g := NewLineString(randomLine(r, n))
		g2, err := Parse(Marshal(g))
		return err == nil && reflect.DeepEqual(g, g2)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindPolygon.String() != "POLYGON" {
		t.Error("KindPolygon name wrong")
	}
	if !strings.HasPrefix(Kind(99).String(), "KIND(") {
		t.Error("unknown kind should stringify defensively")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("NOT WKT")
}
