// Package geom implements the geometry operations iGDB's spatial analyses
// need: point-in-polygon tests, point-to-polyline distance, geodesic buffers
// around routes (the §4.2 MPLS hidden-node inference joins AS peering
// locations against a buffer around each inferred physical path, and
// Figure 4 asks whether a long-haul link lies inside one),
// Sutherland–Hodgman clipping (used by the Voronoi builder), and
// Douglas–Peucker simplification (used when rendering dense cable paths).
package geom

import (
	"math"

	"igdb/internal/geo"
)

// XY is a planar coordinate used by the low-level polygon routines. The
// geographic entry points project lon/lat into a local plane first.
type XY struct {
	X, Y float64
}

// PointInRing reports whether p is inside the closed ring (even-odd ray
// casting). Points exactly on an edge may report either side; iGDB's
// standardization never depends on boundary points because it assigns by
// nearest-neighbour distance.
func PointInRing(p XY, ring []XY) bool {
	inside := false
	n := len(ring)
	if n < 3 {
		return false
	}
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := ring[i], ring[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			xCross := (pj.X-pi.X)*(p.Y-pi.Y)/(pj.Y-pi.Y) + pi.X
			if p.X < xCross {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// PointInPolygon reports whether the lon/lat point lies inside the polygon
// rings (exterior ring first, subsequent rings are holes). The test treats
// lon/lat as planar, which matches how the polygons are constructed.
func PointInPolygon(p geo.Point, rings [][]geo.Point) bool {
	if len(rings) == 0 {
		return false
	}
	q := XY{p.Lon, p.Lat}
	if !PointInRing(q, toXY(rings[0])) {
		return false
	}
	for _, hole := range rings[1:] {
		if PointInRing(q, toXY(hole)) {
			return false
		}
	}
	return true
}

func toXY(pts []geo.Point) []XY {
	out := make([]XY, len(pts))
	for i, p := range pts {
		out[i] = XY{p.Lon, p.Lat}
	}
	return out
}

// SignedArea returns the signed planar area of a ring: positive when the
// ring winds counter-clockwise.
func SignedArea(ring []XY) float64 {
	var a float64
	n := len(ring)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += ring[i].X*ring[j].Y - ring[j].X*ring[i].Y
	}
	return a / 2
}

// HalfPlane is the set of points satisfying A*x + B*y <= C.
type HalfPlane struct {
	A, B, C float64
}

// Side returns A*x + B*y - C; <= 0 means p is inside the half-plane.
func (h HalfPlane) Side(p XY) float64 { return h.A*p.X + h.B*p.Y - h.C }

// Bisector returns the half-plane of points at least as close to a as to b
// (the perpendicular-bisector half containing a). Voronoi cells are
// intersections of these.
func Bisector(a, b XY) HalfPlane {
	// |p-a|^2 <= |p-b|^2  ⇔  2(b-a)·p <= |b|^2 - |a|^2
	return HalfPlane{
		A: 2 * (b.X - a.X),
		B: 2 * (b.Y - a.Y),
		C: b.X*b.X + b.Y*b.Y - a.X*a.X - a.Y*a.Y,
	}
}

// ClipRingHalfPlane clips a convex or simple ring against a half-plane,
// returning the part inside (Sutherland–Hodgman step). The input ring is
// open (no repeated last vertex); so is the output.
func ClipRingHalfPlane(ring []XY, h HalfPlane) []XY {
	if len(ring) == 0 {
		return nil
	}
	out := make([]XY, 0, len(ring)+4)
	n := len(ring)
	for i := 0; i < n; i++ {
		cur, next := ring[i], ring[(i+1)%n]
		curIn, nextIn := h.Side(cur) <= 0, h.Side(next) <= 0
		if curIn {
			out = append(out, cur)
		}
		if curIn != nextIn {
			out = append(out, intersectHalfPlane(cur, next, h))
		}
	}
	if len(out) < 3 {
		return nil
	}
	return out
}

func intersectHalfPlane(a, b XY, h HalfPlane) XY {
	da, db := h.Side(a), h.Side(b)
	t := da / (da - db)
	return XY{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
}

// SegmentPointDistance returns the planar distance from p to segment ab and
// the parameter t in [0,1] of the closest point along ab.
func SegmentPointDistance(p, a, b XY) (dist, t float64) {
	dx, dy := b.X-a.X, b.Y-a.Y
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return math.Hypot(p.X-a.X, p.Y-a.Y), 0
	}
	t = ((p.X-a.X)*dx + (p.Y-a.Y)*dy) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	cx, cy := a.X+t*dx, a.Y+t*dy
	return math.Hypot(p.X-cx, p.Y-cy), t
}

// wrapLon180 normalizes a longitude difference into [-180, 180].
func wrapLon180(d float64) float64 {
	d = math.Mod(d+180, 360)
	if d < 0 {
		d += 360
	}
	return d - 180
}

// DistanceToSegmentKm returns the great-circle-accurate distance in km from
// point p to the geodesic segment ab, computed in a local equirectangular
// plane centered on the segment (accurate for the sub-thousand-km segments
// right-of-way networks consist of). Longitudes are unwrapped into a frame
// centered on a, so a segment crossing the antimeridian (179.9° → -179.9°)
// projects as the short 0.2° hop, not a planet-wide span.
func DistanceToSegmentKm(p, a, b geo.Point) float64 {
	b.Lon = a.Lon + wrapLon180(b.Lon-a.Lon)
	p.Lon = a.Lon + wrapLon180(p.Lon-a.Lon)
	pr := geo.LocalProjection(geo.Point{Lon: (a.Lon + b.Lon) / 2, Lat: (a.Lat + b.Lat) / 2})
	px, py := pr.Forward(p)
	ax, ay := pr.Forward(a)
	bx, by := pr.Forward(b)
	d, _ := SegmentPointDistance(XY{px, py}, XY{ax, ay}, XY{bx, by})
	return d
}

// DistanceToPolylineKm returns the minimum distance in km from p to the
// polyline, and the index of the nearest segment. Returns +Inf for an empty
// line and the point distance for a single-vertex line.
func DistanceToPolylineKm(p geo.Point, line []geo.Point) (km float64, seg int) {
	switch len(line) {
	case 0:
		return math.Inf(1), -1
	case 1:
		return geo.Haversine(p, line[0]), 0
	}
	best := math.Inf(1)
	bestSeg := 0
	for i := 1; i < len(line); i++ {
		if d := DistanceToSegmentKm(p, line[i-1], line[i]); d < best {
			best = d
			bestSeg = i - 1
		}
	}
	return best, bestSeg
}

// HausdorffDirectedKm returns the directed Hausdorff distance from polyline
// a to polyline b in km: the largest distance any vertex of a is from b.
// NewBuffer(b, r).Covers(a) answers HausdorffDirectedKm(a, b) <= r without
// computing the distances; this is its reference.
func HausdorffDirectedKm(a, b []geo.Point) float64 {
	var worst float64
	for _, p := range a {
		d, _ := DistanceToPolylineKm(p, b)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Buffer is a corridor of fixed geodesic radius around a polyline — the
// spatial-buffer object §4.2 builds around each inferred physical route.
type Buffer struct {
	Line     []geo.Point
	RadiusKm float64
}

// NewBuffer constructs a buffer of radiusKm around line.
func NewBuffer(line []geo.Point, radiusKm float64) Buffer {
	return Buffer{Line: line, RadiusKm: radiusKm}
}

// Contains reports whether p lies within the buffer corridor, that is
// whether DistanceToPolylineKm(p, b.Line) <= b.RadiusKm. It returns at the
// first segment within the radius.
func (b Buffer) Contains(p geo.Point) bool {
	if len(b.Line) == 1 {
		return geo.Haversine(p, b.Line[0]) <= b.RadiusKm
	}
	for i := 1; i < len(b.Line); i++ {
		if DistanceToSegmentKm(p, b.Line[i-1], b.Line[i]) <= b.RadiusKm {
			return true
		}
	}
	// No segment is within the radius, so the distance is beyond a finite
	// radius or +Inf (an empty line, or a line of NaN segments).
	return math.IsInf(b.RadiusKm, 1)
}

// Covers reports whether every vertex of line lies within the buffer, that
// is whether HausdorffDirectedKm(line, b.Line) <= b.RadiusKm for valid
// points. A vertex outside BBox rejects the line before any distance is
// computed, and the first vertex outside the corridor ends the test.
func (b Buffer) Covers(line []geo.Point) bool {
	if !(b.RadiusKm >= 0) {
		return false // no directed Hausdorff distance is below 0
	}
	box := b.BBox()
	for _, p := range line {
		if !box.Contains(p) {
			return false
		}
	}
	for _, p := range line {
		if !b.Contains(p) {
			return false
		}
	}
	return true
}

// kmPerDeg is the length of a degree of latitude on the sphere that
// DistanceToSegmentKm and geo.Haversine measure on.
const kmPerDeg = math.Pi / 180 * geo.EarthRadiusKm

// BBox returns a box holding every valid point that Contains accepts, for
// a finite radius, so it can pre-filter candidates before the exact test.
// Latitude is padded by the radius in degrees of latitude, longitude by the
// radius in degrees of the parallel at the padded box's largest |latitude|,
// where a degree of longitude is shortest. That bounds both metrics:
// DistanceToSegmentKm projects at a segment's mean latitude, which lies
// inside the box, and a great circle within the radius of a one-vertex
// line stays inside the padded latitudes. The pads carry a small margin
// for rounding. The box spans every longitude when a segment crosses the
// antimeridian, or when the padded box reaches ±180° (as it does near a
// pole); boxes never wrap.
func (b Buffer) BBox() geo.BBox {
	if len(b.Line) == 0 {
		return geo.EmptyBBox()
	}
	box := geo.BBoxOf(b.Line)
	latPad := withMargin(b.RadiusKm / kmPerDeg)
	box.MinLat = math.Max(-90, box.MinLat-latPad)
	box.MaxLat = math.Min(90, box.MaxLat+latPad)
	maxLat := math.Max(math.Abs(box.MinLat), math.Abs(box.MaxLat))
	lonPad := withMargin(b.RadiusKm / (kmPerDeg * math.Cos(maxLat*math.Pi/180)))
	box.MinLon -= lonPad
	box.MaxLon += lonPad
	if box.MinLon <= -180 || box.MaxLon >= 180 || crossesAntimeridian(b.Line) {
		box.MinLon, box.MaxLon = -180, 180
	}
	return box
}

// withMargin widens a pad in degrees by one part in a billion plus a
// nanodegree, more than the rounding of any distance computation here.
func withMargin(deg float64) float64 { return deg*(1+1e-9) + 1e-9 }

// crossesAntimeridian reports whether DistanceToSegmentKm, which unwraps
// each segment the short way round, takes some segment of line across
// ±180°.
func crossesAntimeridian(line []geo.Point) bool {
	for i := 1; i < len(line); i++ {
		a, b := line[i-1].Lon, line[i].Lon
		if math.Abs(a+wrapLon180(b-a)-b) > 180 {
			return true
		}
	}
	return false
}

// Simplify applies Douglas–Peucker simplification with the given tolerance
// in kilometers, preserving the first and last vertices.
func Simplify(line []geo.Point, toleranceKm float64) []geo.Point {
	if len(line) < 3 {
		return line
	}
	keep := make([]bool, len(line))
	keep[0], keep[len(line)-1] = true, true
	simplifyRange(line, 0, len(line)-1, toleranceKm, keep)
	out := make([]geo.Point, 0, len(line))
	for i, k := range keep {
		if k {
			out = append(out, line[i])
		}
	}
	return out
}

func simplifyRange(line []geo.Point, lo, hi int, tol float64, keep []bool) {
	if hi-lo < 2 {
		return
	}
	var worst float64
	worstIdx := -1
	for i := lo + 1; i < hi; i++ {
		d := DistanceToSegmentKm(line[i], line[lo], line[hi])
		if d > worst {
			worst = d
			worstIdx = i
		}
	}
	if worst > tol {
		keep[worstIdx] = true
		simplifyRange(line, lo, worstIdx, tol, keep)
		simplifyRange(line, worstIdx, hi, tol, keep)
	}
}

// ConvexHull returns the convex hull of pts (Andrew's monotone chain) as an
// open counter-clockwise ring. Used for AS spatial-extent polygons (the
// translucent footprint polygons of Figure 9).
func ConvexHull(pts []geo.Point) []geo.Point {
	n := len(pts)
	if n < 3 {
		out := make([]geo.Point, n)
		copy(out, pts)
		return out
	}
	sorted := make([]geo.Point, n)
	copy(sorted, pts)
	// Sort by lon, then lat.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && less(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	cross := func(o, a, b geo.Point) float64 {
		return (a.Lon-o.Lon)*(b.Lat-o.Lat) - (a.Lat-o.Lat)*(b.Lon-o.Lon)
	}
	var hull []geo.Point
	for _, p := range sorted { // lower
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- { // upper
		p := sorted[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

func less(a, b geo.Point) bool {
	if a.Lon != b.Lon {
		return a.Lon < b.Lon
	}
	return a.Lat < b.Lat
}
