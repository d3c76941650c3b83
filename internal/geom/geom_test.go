package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"igdb/internal/geo"
)

var unitSquare = []XY{{0, 0}, {10, 0}, {10, 10}, {0, 10}}

func closedRing(open []XY) []XY { return append(append([]XY{}, open...), open[0]) }

func TestPointInRing(t *testing.T) {
	ring := closedRing(unitSquare)
	cases := []struct {
		p    XY
		want bool
	}{
		{XY{5, 5}, true},
		{XY{0.001, 0.001}, true},
		{XY{-1, 5}, false},
		{XY{11, 5}, false},
		{XY{5, -1}, false},
		{XY{5, 11}, false},
	}
	for _, c := range cases {
		if got := PointInRing(c.p, ring); got != c.want {
			t.Errorf("PointInRing(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPointInRingDegenerate(t *testing.T) {
	if PointInRing(XY{0, 0}, nil) {
		t.Error("empty ring should contain nothing")
	}
	if PointInRing(XY{0, 0}, []XY{{0, 0}, {1, 1}}) {
		t.Error("2-point ring should contain nothing")
	}
}

func TestPointInPolygonWithHole(t *testing.T) {
	rings := [][]geo.Point{
		{{Lon: 0, Lat: 0}, {Lon: 10, Lat: 0}, {Lon: 10, Lat: 10}, {Lon: 0, Lat: 10}, {Lon: 0, Lat: 0}},
		{{Lon: 3, Lat: 3}, {Lon: 7, Lat: 3}, {Lon: 7, Lat: 7}, {Lon: 3, Lat: 7}, {Lon: 3, Lat: 3}},
	}
	if !PointInPolygon(geo.Point{Lon: 1, Lat: 1}, rings) {
		t.Error("(1,1) should be inside (not in hole)")
	}
	if PointInPolygon(geo.Point{Lon: 5, Lat: 5}, rings) {
		t.Error("(5,5) is in the hole")
	}
	if PointInPolygon(geo.Point{Lon: 20, Lat: 20}, rings) {
		t.Error("(20,20) is outside")
	}
	if PointInPolygon(geo.Point{}, nil) {
		t.Error("empty polygon contains nothing")
	}
}

func TestSignedArea(t *testing.T) {
	ccw := unitSquare
	if a := SignedArea(ccw); math.Abs(a-100) > 1e-9 {
		t.Errorf("CCW area = %v, want 100", a)
	}
	cw := []XY{{0, 0}, {0, 10}, {10, 10}, {10, 0}}
	if a := SignedArea(cw); math.Abs(a+100) > 1e-9 {
		t.Errorf("CW area = %v, want -100", a)
	}
}

func TestBisectorHalfPlane(t *testing.T) {
	a, b := XY{0, 0}, XY{10, 0}
	h := Bisector(a, b)
	if h.Side(XY{1, 3}) > 0 {
		t.Error("point nearer a should be inside the bisector half-plane of a")
	}
	if h.Side(XY{9, 3}) < 0 {
		t.Error("point nearer b should be outside")
	}
	if math.Abs(h.Side(XY{5, 7})) > 1e-9 {
		t.Error("equidistant point should be on the boundary")
	}
}

func TestBisectorProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		a := XY{r.Float64()*100 - 50, r.Float64()*100 - 50}
		b := XY{r.Float64()*100 - 50, r.Float64()*100 - 50}
		if a == b {
			return true
		}
		p := XY{r.Float64()*100 - 50, r.Float64()*100 - 50}
		da := math.Hypot(p.X-a.X, p.Y-a.Y)
		db := math.Hypot(p.X-b.X, p.Y-b.Y)
		inside := Bisector(a, b).Side(p) <= 0
		if math.Abs(da-db) < 1e-9 {
			return true // boundary: either answer fine
		}
		return inside == (da < db)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClipRingHalfPlane(t *testing.T) {
	// Keep x <= 5 of the 10x10 square.
	h := HalfPlane{A: 1, B: 0, C: 5}
	out := ClipRingHalfPlane(unitSquare, h)
	if len(out) != 4 {
		t.Fatalf("clipped ring has %d vertices, want 4", len(out))
	}
	if a := math.Abs(SignedArea(out)); math.Abs(a-50) > 1e-9 {
		t.Errorf("clipped area = %v, want 50", a)
	}
	for _, p := range out {
		if p.X > 5+1e-9 {
			t.Errorf("vertex %v violates clip plane", p)
		}
	}
}

func TestClipRingHalfPlaneAllOutside(t *testing.T) {
	h := HalfPlane{A: 1, B: 0, C: -5} // x <= -5 excludes the square entirely
	if out := ClipRingHalfPlane(unitSquare, h); out != nil {
		t.Errorf("fully-clipped ring should be nil, got %v", out)
	}
	if out := ClipRingHalfPlane(nil, h); out != nil {
		t.Error("clipping empty ring should be nil")
	}
}

func TestClipRingHalfPlaneAllInside(t *testing.T) {
	h := HalfPlane{A: 1, B: 0, C: 100}
	out := ClipRingHalfPlane(unitSquare, h)
	if len(out) != 4 || math.Abs(SignedArea(out)-100) > 1e-9 {
		t.Errorf("unclipped ring changed: %v", out)
	}
}

func TestSegmentPointDistance(t *testing.T) {
	d, tt := SegmentPointDistance(XY{5, 5}, XY{0, 0}, XY{10, 0})
	if math.Abs(d-5) > 1e-9 || math.Abs(tt-0.5) > 1e-9 {
		t.Errorf("got d=%v t=%v", d, tt)
	}
	// Beyond segment end clamps.
	d, tt = SegmentPointDistance(XY{20, 0}, XY{0, 0}, XY{10, 0})
	if math.Abs(d-10) > 1e-9 || tt != 1 {
		t.Errorf("clamped: d=%v t=%v", d, tt)
	}
	// Zero-length segment.
	d, tt = SegmentPointDistance(XY{3, 4}, XY{0, 0}, XY{0, 0})
	if math.Abs(d-5) > 1e-9 || tt != 0 {
		t.Errorf("degenerate: d=%v t=%v", d, tt)
	}
}

func TestDistanceToSegmentKm(t *testing.T) {
	// Point 1 degree of latitude north of segment midpoint ≈ 111.2 km.
	a := geo.Point{Lon: 0, Lat: 0}
	b := geo.Point{Lon: 2, Lat: 0}
	p := geo.Point{Lon: 1, Lat: 1}
	d := DistanceToSegmentKm(p, a, b)
	if math.Abs(d-111.2) > 1.5 {
		t.Errorf("distance = %.2f km, want ~111.2", d)
	}
}

func TestDistanceToPolylineKm(t *testing.T) {
	line := []geo.Point{{Lon: 0, Lat: 0}, {Lon: 1, Lat: 0}, {Lon: 2, Lat: 0}, {Lon: 2, Lat: 1}}
	p := geo.Point{Lon: 2.5, Lat: 0.5}
	d, seg := DistanceToPolylineKm(p, line)
	if seg != 2 {
		t.Errorf("nearest segment = %d, want 2 (the vertical one)", seg)
	}
	if d > 60 {
		t.Errorf("distance %.1f km too large", d)
	}
	if d, seg := DistanceToPolylineKm(p, nil); !math.IsInf(d, 1) || seg != -1 {
		t.Error("empty polyline should be Inf/-1")
	}
	if d, _ := DistanceToPolylineKm(p, line[:1]); math.Abs(d-geo.Haversine(p, line[0])) > 1e-9 {
		t.Error("single-vertex polyline should reduce to point distance")
	}
}

func TestHausdorffDirectedKm(t *testing.T) {
	a := []geo.Point{{Lon: 0, Lat: 0}, {Lon: 1, Lat: 0}, {Lon: 2, Lat: 0}}
	b := []geo.Point{{Lon: 0, Lat: 0.1}, {Lon: 1, Lat: 0.1}, {Lon: 2, Lat: 0.1}}
	d := HausdorffDirectedKm(a, b)
	if math.Abs(d-11.1) > 0.5 {
		t.Errorf("Hausdorff = %.2f, want ~11.1 km", d)
	}
	// A sub-path has zero directed distance to its superset line.
	if d := HausdorffDirectedKm(a[:2], a); d > 1e-9 {
		t.Errorf("sub-path Hausdorff = %v, want 0", d)
	}
}

func TestBufferContains(t *testing.T) {
	line := []geo.Point{{Lon: -94.58, Lat: 39.10}, {Lon: -95.99, Lat: 36.15}} // ~KC to Tulsa
	buf := NewBuffer(line, geo.KmPerMile*25)
	onPath := geo.Interpolate(line[0], line[1], 0.5)
	if !buf.Contains(onPath) {
		t.Error("midpoint of the line must be in its own buffer")
	}
	nearby := geo.Destination(onPath, 90, 30) // 30 km east < 40.2 km radius
	if !buf.Contains(nearby) {
		t.Error("point 30 km off a 25-mile buffer should be inside")
	}
	far := geo.Destination(onPath, 90, 80)
	if buf.Contains(far) {
		t.Error("point 80 km off should be outside")
	}
	if !buf.BBox().Contains(nearby) {
		t.Error("buffer bbox must cover contained points")
	}
}

func TestSimplify(t *testing.T) {
	// Dense nearly-straight line collapses to endpoints.
	var line []geo.Point
	for i := 0; i <= 100; i++ {
		line = append(line, geo.Point{Lon: float64(i) * 0.01, Lat: 0.00001 * float64(i%2)})
	}
	out := Simplify(line, 1.0)
	if len(out) != 2 {
		t.Errorf("straight line simplified to %d points, want 2", len(out))
	}
	// A sharp corner survives.
	bent := []geo.Point{{Lon: 0, Lat: 0}, {Lon: 1, Lat: 0}, {Lon: 1, Lat: 1}}
	out = Simplify(bent, 1.0)
	if len(out) != 3 {
		t.Errorf("corner simplified away: %v", out)
	}
	if got := Simplify(bent[:2], 1); len(got) != 2 {
		t.Error("short lines pass through")
	}
}

func TestSimplifyPreservesEndpoints(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(30)
		line := make([]geo.Point, n)
		for i := range line {
			line[i] = geo.Point{Lon: r.Float64() * 10, Lat: r.Float64() * 10}
		}
		out := Simplify(line, r.Float64()*100)
		if len(out) < 2 || out[0] != line[0] || out[len(out)-1] != line[n-1] {
			t.Fatalf("endpoints not preserved: in=%v out=%v", line, out)
		}
	}
}

func TestConvexHull(t *testing.T) {
	pts := []geo.Point{
		{Lon: 0, Lat: 0}, {Lon: 10, Lat: 0}, {Lon: 10, Lat: 10}, {Lon: 0, Lat: 10},
		{Lon: 5, Lat: 5}, {Lon: 2, Lat: 3}, {Lon: 7, Lat: 8}, // interior points
	}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(hull), hull)
	}
	ring := make([]XY, len(hull))
	for i, p := range hull {
		ring[i] = XY{p.Lon, p.Lat}
	}
	if a := SignedArea(ring); math.Abs(math.Abs(a)-100) > 1e-9 {
		t.Errorf("hull area = %v, want 100", a)
	}
	// Interior points are inside the hull.
	if !PointInRing(XY{5, 5}, closedRing(ring)) {
		t.Error("interior point not in hull")
	}
}

func TestConvexHullSmallInputs(t *testing.T) {
	if got := ConvexHull(nil); len(got) != 0 {
		t.Error("nil input")
	}
	two := []geo.Point{{Lon: 0, Lat: 0}, {Lon: 1, Lat: 1}}
	if got := ConvexHull(two); len(got) != 2 {
		t.Errorf("2-point hull = %v", got)
	}
}

func TestConvexHullProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(50)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{Lon: r.Float64()*20 - 10, Lat: r.Float64()*20 - 10}
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue // collinear degenerate draws are fine
		}
		ring := make([]XY, len(hull))
		for i, p := range hull {
			ring[i] = XY{p.Lon, p.Lat}
		}
		closed := closedRing(ring)
		for _, p := range pts {
			q := XY{p.Lon, p.Lat}
			onHull := false
			for _, h := range ring {
				if math.Abs(h.X-q.X) < 1e-12 && math.Abs(h.Y-q.Y) < 1e-12 {
					onHull = true
					break
				}
			}
			if !onHull && !PointInRing(q, closed) {
				// Boundary points may fail ray casting; tolerate tiny epsilon.
				d := math.Inf(1)
				for i := 0; i < len(ring); i++ {
					dd, _ := SegmentPointDistance(q, ring[i], ring[(i+1)%len(ring)])
					if dd < d {
						d = dd
					}
				}
				if d > 1e-9 {
					t.Fatalf("point %v outside hull %v (dist %g)", p, hull, d)
				}
			}
		}
	}
}

func TestDistanceToSegmentKmAntimeridian(t *testing.T) {
	// A segment hopping the antimeridian: 0.2° of longitude at the equator,
	// not a planet-wide span. Naive projection of raw longitudes would put
	// the endpoints ~40000 km apart and misplace every distance.
	a := geo.Point{Lon: 179.9, Lat: 0}
	b := geo.Point{Lon: -179.9, Lat: 0}
	cases := []struct {
		name   string
		p      geo.Point
		wantKm float64
		within float64
	}{
		{"on the meridian itself", geo.Point{Lon: 180, Lat: 0}, 0, 0.5},
		{"just north of the midpoint", geo.Point{Lon: 180, Lat: 0.5}, 55.6, 1.5},
		{"west endpoint side", geo.Point{Lon: 179.5, Lat: 0}, 44.5, 1.5},
		{"east endpoint side", geo.Point{Lon: -179.5, Lat: 0}, 44.5, 1.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DistanceToSegmentKm(tc.p, a, b)
			if math.Abs(got-tc.wantKm) > tc.within {
				t.Errorf("DistanceToSegmentKm = %.2f km, want %.2f ± %.1f", got, tc.wantKm, tc.within)
			}
			// Symmetric in the segment's orientation.
			if rev := DistanceToSegmentKm(tc.p, b, a); math.Abs(rev-got) > 1e-6 {
				t.Errorf("orientation asymmetry: %.6f vs %.6f", got, rev)
			}
		})
	}
}

func TestDistanceToPolylineKmAntimeridian(t *testing.T) {
	// A cable-like polyline crossing the antimeridian at the equator.
	line := []geo.Point{{Lon: 178, Lat: 0}, {Lon: 179.5, Lat: 0.2}, {Lon: -179, Lat: 0}}
	km, seg := DistanceToPolylineKm(geo.Point{Lon: 179.9, Lat: 0.1}, line)
	if km > 15 {
		t.Errorf("point near the crossing should be close to the line, got %.1f km", km)
	}
	if seg != 1 {
		t.Errorf("nearest segment = %d, want 1 (the crossing segment)", seg)
	}
	// A point a whole hemisphere away stays far even with wrapping.
	if km, _ := DistanceToPolylineKm(geo.Point{Lon: 0, Lat: 0}, line); km < 19000 {
		t.Errorf("antipodal point should be ~20000 km away, got %.0f", km)
	}
}

func TestDistanceToSegmentKmNearPole(t *testing.T) {
	// Segment along the 89°N parallel from lon 0 to lon 90. Every point on
	// it is one degree (~111 km) from the pole; the local projection must
	// not blow that up even though meridians converge sharply there.
	a := geo.Point{Lon: 0, Lat: 89}
	b := geo.Point{Lon: 90, Lat: 89}
	pole := geo.Point{Lon: 45, Lat: 90}
	got := DistanceToSegmentKm(pole, a, b)
	if got < 95 || got > 125 {
		t.Errorf("pole to 89°N segment = %.1f km, want ≈111", got)
	}
	// A point on the parallel between the endpoints is near the segment
	// (the chord cuts poleward of the parallel, so allow the sagitta).
	mid := geo.Point{Lon: 45, Lat: 89}
	if got := DistanceToSegmentKm(mid, a, b); got > 50 {
		t.Errorf("on-parallel midpoint = %.1f km from chord, want < 50", got)
	}
}
