package render

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"igdb/internal/geo"
	"igdb/internal/wkt"
)

func TestSVGBasics(t *testing.T) {
	m := NewWorldMap(720, 360)
	m.SetTitle("Test & Map")
	m.Polyline([]geo.Point{{Lon: -90, Lat: 0}, {Lon: 90, Lat: 0}}, Style{Stroke: "green", StrokeWidth: 1})
	m.Circle(geo.Point{Lon: 0, Lat: 0}, Style{Fill: "orange", Radius: 3})
	m.Polygon([]geo.Point{{Lon: 0, Lat: 0}, {Lon: 10, Lat: 0}, {Lon: 10, Lat: 10}}, Style{Fill: "blue", Opacity: 0.5})
	m.Text(geo.Point{Lon: 0, Lat: 50}, "<label>", 12)
	svg := string(m.SVG())
	for _, want := range []string{"<svg", "polyline", "circle", "polygon", "&lt;label&gt;", "Test &amp; Map", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if m.ElementCount() != 4 {
		t.Errorf("elements = %d, want 4", m.ElementCount())
	}
}

func TestProjectionOrientation(t *testing.T) {
	m := NewWorldMap(360, 180)
	// North pole maps to y=0, antimeridian west edge to x=0.
	x, y := m.project(geo.Point{Lon: -180, Lat: 90})
	if x != 0 || y != 0 {
		t.Errorf("NW corner at (%v, %v)", x, y)
	}
	x, y = m.project(geo.Point{Lon: 180, Lat: -90})
	if x != 360 || y != 180 {
		t.Errorf("SE corner at (%v, %v)", x, y)
	}
}

func TestDegenerateElementsIgnored(t *testing.T) {
	m := NewWorldMap(100, 50)
	m.Polyline([]geo.Point{{Lon: 0, Lat: 0}}, Style{})
	m.Polygon([]geo.Point{{Lon: 0, Lat: 0}, {Lon: 1, Lat: 1}}, Style{})
	if m.ElementCount() != 0 {
		t.Error("degenerate shapes should be skipped")
	}
}

func TestGeometryDispatch(t *testing.T) {
	m := NewWorldMap(100, 50)
	for _, s := range []string{
		"POINT (1 2)",
		"LINESTRING (0 0, 1 1)",
		"POLYGON ((0 0, 5 0, 5 5, 0 0))",
		"MULTIPOINT (1 1, 2 2)",
		"MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))",
		"GEOMETRYCOLLECTION (POINT (0 0), LINESTRING (1 1, 2 2))",
	} {
		m.Geometry(wkt.MustParse(s), Style{Stroke: "black"})
	}
	if m.ElementCount() != 10 {
		t.Errorf("elements = %d, want 10", m.ElementCount())
	}
}

func TestGeoJSON(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFeatureWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Add(wkt.MustParse("POINT (1 2)"), map[string]interface{}{"name": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Add(wkt.MustParse("LINESTRING (0 0, 1 1)"), nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Add(wkt.MustParse("POLYGON ((0 0, 1 0, 1 1, 0 0))"), nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Add(wkt.MustParse("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))"), nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type string `json:"type"`
			} `json:"geometry"`
			Properties map[string]interface{} `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Type != "FeatureCollection" || len(doc.Features) != 4 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Features[0].Geometry.Type != "Point" || doc.Features[0].Properties["name"] != "x" {
		t.Errorf("first feature wrong: %+v", doc.Features[0])
	}
	if doc.Features[3].Geometry.Type != "MultiPolygon" {
		t.Errorf("fourth feature type = %s", doc.Features[3].Geometry.Type)
	}
}

func TestGeoJSONRejectsEmptyGeometry(t *testing.T) {
	fw, err := NewFeatureWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	g := wkt.Geometry{Kind: wkt.Kind(99)}
	if err := fw.Add(g, nil); err == nil {
		t.Error("unsupported kind should fail")
	}
}

// AppendFixed writes exactly fmt's bytes: on exact binary ties (0.25,
// 2.5), on decimal near-ties that carry (9.95, 99.95), on tiny negatives
// that round to -0, on huge and non-finite values, and on a million random
// values of each kind at one and two decimals.
func TestAppendFixedMatchesFmt(t *testing.T) {
	check := func(v float64) {
		for prec := 0; prec <= 3; prec++ {
			want := fmt.Sprintf("%.*f", prec, v)
			if got := string(AppendFixed(nil, v, prec)); got != want {
				t.Fatalf("AppendFixed(%v (%b), %d) = %q, fmt %q", v, math.Float64bits(v), prec, got, want)
			}
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.25, 2.5, -2.5, 0.125, 0.375, 1.5, 0.05, 0.15, -0.05,
		9.95, 99.95, 999.95, -9.95, 0.995, 9.995, 1e-300, -1e-300, -0.04, -0.004, 5e-324,
		1 << 31, 1<<31 - 0.05, 214748364.75, 21474836.45, 2147483.645, 1e15, 1e300, -1e300,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		check(v)
		check(math.Nextafter(v, math.Inf(1)))
		check(math.Nextafter(v, math.Inf(-1)))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		var v float64
		switch i % 5 {
		case 0: // an SVG coordinate
			v = r.Float64()*2000 - 500
		case 1: // a tie or near-tie at one or two decimals
			v = float64(r.Intn(2_000_000)-1_000_000) / []float64{20, 200}[r.Intn(2)]
		case 2: // small, often rounding to zero
			v = (r.Float64() - 0.5) * 0.02
		case 3: // any magnitude
			v = math.Ldexp(r.Float64()-0.5, r.Intn(80)-20)
		default: // any bit pattern
			v = math.Float64frombits(r.Uint64())
		}
		for _, prec := range []int{1, 2} {
			want := fmt.Sprintf("%.*f", prec, v)
			if got := string(AppendFixed(nil, v, prec)); got != want {
				t.Fatalf("AppendFixed(%v (%b), %d) = %q, fmt %q", v, math.Float64bits(v), prec, got, want)
			}
		}
	}
}
