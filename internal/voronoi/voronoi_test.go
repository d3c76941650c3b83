package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"igdb/internal/geo"
	"igdb/internal/geom"
)

func TestTwoSites(t *testing.T) {
	sites := []geo.Point{{Lon: -10, Lat: 0}, {Lon: 10, Lat: 0}}
	d := Build(sites, WorldBounds)
	if d.Cells[0] == nil || d.Cells[1] == nil {
		t.Fatal("both cells must exist")
	}
	// The boundary is the lon=0 meridian; each cell covers half the world.
	half := 360.0 * 180.0 / 2
	if a := d.CellArea(0); math.Abs(a-half) > 1 {
		t.Errorf("cell 0 area = %v, want %v", a, half)
	}
	// Sites sit inside their own cells.
	if !geom.PointInPolygon(sites[0], [][]geo.Point{d.Cells[0]}) {
		t.Error("site 0 not in its own cell")
	}
	// A point west of the bisector belongs to cell 0.
	if !geom.PointInPolygon(geo.Point{Lon: -1, Lat: 30}, [][]geo.Point{d.Cells[0]}) {
		t.Error("(-1,30) should be in the western cell")
	}
	if geom.PointInPolygon(geo.Point{Lon: 1, Lat: 30}, [][]geo.Point{d.Cells[0]}) {
		t.Error("(1,30) should not be in the western cell")
	}
}

func TestCellsAreClosedRings(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	sites := randomSites(r, 40)
	d := Build(sites, WorldBounds)
	for i, c := range d.Cells {
		if c == nil {
			t.Fatalf("cell %d missing", i)
		}
		if len(c) < 4 {
			t.Fatalf("cell %d too small: %d points", i, len(c))
		}
		if c[0] != c[len(c)-1] {
			t.Fatalf("cell %d ring not closed", i)
		}
	}
}

func randomSites(r *rand.Rand, n int) []geo.Point {
	sites := make([]geo.Point, n)
	for i := range sites {
		sites[i] = geo.Point{Lon: r.Float64()*360 - 180, Lat: r.Float64()*180 - 90}
	}
	return sites
}

// nearestSite returns the index of the planar nearest site to p, or -1
// when there are none.
func nearestSite(sites []geo.Point, p geo.Point) int {
	best, bestD := -1, math.Inf(1)
	for i, s := range sites {
		dx, dy := s.Lon-p.Lon, s.Lat-p.Lat
		if dd := dx*dx + dy*dy; dd < bestD {
			best, bestD = i, dd
		}
	}
	return best
}

// The defining property: every random point lies in the cell of its planar
// nearest site.
func TestNearestSiteOwnsCell(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	sites := randomSites(r, 120)
	d := Build(sites, WorldBounds)
	for q := 0; q < 400; q++ {
		p := geo.Point{Lon: r.Float64()*360 - 180, Lat: r.Float64()*180 - 90}
		owner := nearestSite(sites, p)
		if owner < 0 {
			t.Fatal("locate failed")
		}
		if !geom.PointInPolygon(p, [][]geo.Point{d.Cells[owner]}) {
			// Tolerate boundary-precision cases: point must at least be very
			// close to the owner's cell.
			dmin, _ := geom.DistanceToPolylineKm(p, d.Cells[owner])
			if dmin > 1 {
				t.Fatalf("point %v not in cell of nearest site %d (%.2f km away)", p, owner, dmin)
			}
		}
	}
}

// Cells tile the bounding rectangle: areas sum to the world rectangle area.
func TestTessellationCoversWorld(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	sites := randomSites(r, 200)
	d := Build(sites, WorldBounds)
	want := 360.0 * 180.0
	got := d.TotalArea()
	if math.Abs(got-want)/want > 1e-6 {
		t.Errorf("total cell area = %.4f, want %.4f", got, want)
	}
}

func TestDuplicateSites(t *testing.T) {
	sites := []geo.Point{{Lon: 0, Lat: 0}, {Lon: 0, Lat: 0}, {Lon: 20, Lat: 20}}
	d := Build(sites, WorldBounds)
	if d.Cells[0] == nil {
		t.Error("first duplicate keeps its cell")
	}
	if d.Cells[1] != nil {
		t.Error("second duplicate must lose its cell")
	}
	if d.Cells[2] == nil {
		t.Error("distinct site keeps its cell")
	}
	// Areas still tile the world.
	want := 360.0 * 180.0
	if got := d.TotalArea(); math.Abs(got-want)/want > 1e-6 {
		t.Errorf("area %.2f, want %.2f", got, want)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	d := Build(nil, WorldBounds)
	if len(d.Cells) != 0 {
		t.Error("empty diagram mishandled")
	}
	d = Build([]geo.Point{{Lon: 5, Lat: 5}}, WorldBounds)
	if d.CellArea(0) != 360*180 {
		t.Errorf("single site must own the world, got area %v", d.CellArea(0))
	}
}

func TestRegionalBounds(t *testing.T) {
	// Continental US-ish box.
	bounds := geo.BBox{MinLon: -125, MinLat: 24, MaxLon: -66, MaxLat: 50}
	sites := []geo.Point{
		{Lon: -94.58, Lat: 39.10}, // Kansas City
		{Lon: -95.99, Lat: 36.15}, // Tulsa
		{Lon: -84.39, Lat: 33.75}, // Atlanta
		{Lon: -90.20, Lat: 38.63}, // St. Louis
		{Lon: -86.78, Lat: 36.16}, // Nashville
	}
	d := Build(sites, bounds)
	want := (bounds.MaxLon - bounds.MinLon) * (bounds.MaxLat - bounds.MinLat)
	if got := d.TotalArea(); math.Abs(got-want)/want > 1e-6 {
		t.Errorf("regional tessellation area %.2f, want %.2f", got, want)
	}
	// Check all cell vertices stay in bounds.
	for i, c := range d.Cells {
		for _, p := range c {
			if !bounds.Pad(1e-9).Contains(p) {
				t.Fatalf("cell %d vertex %v escapes bounds", i, p)
			}
		}
	}
}

func TestLargeDiagramProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := rand.New(rand.NewSource(77))
	sites := randomSites(r, 1500)
	d := Build(sites, WorldBounds)
	want := 360.0 * 180.0
	if got := d.TotalArea(); math.Abs(got-want)/want > 1e-5 {
		t.Errorf("1500-site tessellation area %.2f, want %.2f", got, want)
	}
	// Spot-check ownership.
	for q := 0; q < 100; q++ {
		p := geo.Point{Lon: r.Float64()*360 - 180, Lat: r.Float64()*180 - 90}
		owner := nearestSite(sites, p)
		if !geom.PointInPolygon(p, [][]geo.Point{d.Cells[owner]}) {
			dmin, _ := geom.DistanceToPolylineKm(p, d.Cells[owner])
			if dmin > 1 {
				t.Fatalf("ownership violated for %v (%.2f km)", p, dmin)
			}
		}
	}
}

func BenchmarkBuild1000(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	sites := randomSites(r, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(sites, WorldBounds)
	}
}
