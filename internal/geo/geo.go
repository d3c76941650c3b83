// Package geo provides geodesic primitives on a spherical Earth model:
// great-circle distances, bearings, destination points, bounding boxes and
// the equirectangular projection used by the renderer.
//
// All coordinates are WGS84-style longitude/latitude in decimal degrees.
// Distances are kilometers unless stated otherwise. The sphere radius is the
// IUGG mean Earth radius.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the IUGG mean Earth radius in kilometers.
const EarthRadiusKm = 6371.0088

// KmPerMile converts statute miles to kilometers.
const KmPerMile = 1.609344

// Point is a geographic coordinate in decimal degrees.
type Point struct {
	Lon float64 // longitude, degrees east, [-180, 180]
	Lat float64 // latitude, degrees north, [-90, 90]
}

// String renders the point as "(lon, lat)" with 6 decimal places.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lon, p.Lat)
}

// Valid reports whether the point lies in the legal lon/lat domain.
func (p Point) Valid() bool {
	return p.Lon >= -180 && p.Lon <= 180 && p.Lat >= -90 && p.Lat <= 90 &&
		!math.IsNaN(p.Lon) && !math.IsNaN(p.Lat)
}

// Radians returns the point's longitude and latitude in radians.
func (p Point) Radians() (lon, lat float64) {
	return p.Lon * math.Pi / 180, p.Lat * math.Pi / 180
}

// FromRadians builds a Point from radian coordinates.
func FromRadians(lon, lat float64) Point {
	return Point{Lon: lon * 180 / math.Pi, Lat: lat * 180 / math.Pi}
}

// NormalizeLon wraps a longitude into [-180, 180]; ±Inf and NaN give NaN.
// A longitude beyond ±540 is first reduced with math.Mod, which is exact,
// so the loops below run at most once each and a huge or infinite input
// returns at once.
func NormalizeLon(lon float64) float64 {
	if math.Abs(lon) > 540 {
		lon = math.Mod(lon, 360)
	}
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// Haversine returns the great-circle distance between a and b in kilometers.
func Haversine(a, b Point) float64 {
	lon1, lat1 := a.Radians()
	lon2, lat2 := b.Radians()
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(s))
}

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees clockwise from true north, in [0, 360).
func InitialBearing(a, b Point) float64 {
	lon1, lat1 := a.Radians()
	lon2, lat2 := b.Radians()
	dLon := lon2 - lon1
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	brng := math.Atan2(y, x) * 180 / math.Pi
	return math.Mod(brng+360, 360)
}

// Destination returns the point reached by travelling distKm kilometers from
// start along the given initial bearing (degrees clockwise from north).
func Destination(start Point, bearingDeg, distKm float64) Point {
	lon1, lat1 := start.Radians()
	brng := bearingDeg * math.Pi / 180
	d := distKm / EarthRadiusKm
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(brng))
	lon2 := lon1 + math.Atan2(math.Sin(brng)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2))
	p := FromRadians(lon2, lat2)
	p.Lon = NormalizeLon(p.Lon)
	return p
}

// Midpoint returns the great-circle midpoint of a and b.
func Midpoint(a, b Point) Point {
	lon1, lat1 := a.Radians()
	lon2, lat2 := b.Radians()
	dLon := lon2 - lon1
	bx := math.Cos(lat2) * math.Cos(dLon)
	by := math.Cos(lat2) * math.Sin(dLon)
	lat3 := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon3 := lon1 + math.Atan2(by, math.Cos(lat1)+bx)
	p := FromRadians(lon3, lat3)
	p.Lon = NormalizeLon(p.Lon)
	return p
}

// Interpolate returns the point a fraction f (0..1) of the way along the
// great circle from a to b.
func Interpolate(a, b Point, f float64) Point {
	if f <= 0 {
		return a
	}
	if f >= 1 {
		return b
	}
	lon1, lat1 := a.Radians()
	lon2, lat2 := b.Radians()
	d := Haversine(a, b) / EarthRadiusKm
	if d == 0 {
		return a
	}
	sinD := math.Sin(d)
	fa := math.Sin((1-f)*d) / sinD
	fb := math.Sin(f*d) / sinD
	x := fa*math.Cos(lat1)*math.Cos(lon1) + fb*math.Cos(lat2)*math.Cos(lon2)
	y := fa*math.Cos(lat1)*math.Sin(lon1) + fb*math.Cos(lat2)*math.Sin(lon2)
	z := fa*math.Sin(lat1) + fb*math.Sin(lat2)
	lat3 := math.Atan2(z, math.Sqrt(x*x+y*y))
	lon3 := math.Atan2(y, x)
	return FromRadians(lon3, lat3)
}

// PathLengthKm returns the cumulative great-circle length of a polyline.
func PathLengthKm(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += Haversine(pts[i-1], pts[i])
	}
	return total
}

// BBox is an axis-aligned geographic bounding box. Boxes never wrap the
// antimeridian: callers splitting geometry across it should use two boxes.
type BBox struct {
	MinLon, MinLat, MaxLon, MaxLat float64
}

// EmptyBBox returns an inverted box suitable as the zero accumulator for
// Extend.
func EmptyBBox() BBox {
	return BBox{MinLon: math.Inf(1), MinLat: math.Inf(1), MaxLon: math.Inf(-1), MaxLat: math.Inf(-1)}
}

// Extend grows the box to include p.
func (b BBox) Extend(p Point) BBox {
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	return b
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	return b.Extend(Point{o.MinLon, o.MinLat}).Extend(Point{o.MaxLon, o.MaxLat})
}

// Contains reports whether p lies inside or on the boundary of b.
func (b BBox) Contains(p Point) bool {
	return p.Lon >= b.MinLon && p.Lon <= b.MaxLon && p.Lat >= b.MinLat && p.Lat <= b.MaxLat
}

// Intersects reports whether b and o share any area or boundary.
func (b BBox) Intersects(o BBox) bool {
	return b.MinLon <= o.MaxLon && b.MaxLon >= o.MinLon &&
		b.MinLat <= o.MaxLat && b.MaxLat >= o.MinLat
}

// Pad returns the box grown by d degrees on every side, clamped to the legal
// lat domain.
func (b BBox) Pad(d float64) BBox {
	b.MinLon -= d
	b.MaxLon += d
	b.MinLat = math.Max(-90, b.MinLat-d)
	b.MaxLat = math.Min(90, b.MaxLat+d)
	return b
}

// Center returns the box's center point.
func (b BBox) Center() Point {
	return Point{Lon: (b.MinLon + b.MaxLon) / 2, Lat: (b.MinLat + b.MaxLat) / 2}
}

// BBoxOf returns the bounding box of a set of points; the empty box if none.
func BBoxOf(pts []Point) BBox {
	b := EmptyBBox()
	for _, p := range pts {
		b = b.Extend(p)
	}
	return b
}

// Projection maps lon/lat to planar x/y. The equirectangular projection with
// a reference latitude is accurate enough for regional geometry (buffers,
// bisectors) and is what the renderer uses for the world map.
type Projection struct {
	// RefLat is the latitude of true scale, degrees.
	RefLat float64
	cosRef float64
}

// NewProjection builds an equirectangular projection scaled at refLat.
func NewProjection(refLat float64) Projection {
	return Projection{RefLat: refLat, cosRef: math.Cos(refLat * math.Pi / 180)}
}

// Forward projects p to planar kilometers.
func (pr Projection) Forward(p Point) (x, y float64) {
	const kmPerDeg = math.Pi / 180 * EarthRadiusKm
	return p.Lon * kmPerDeg * pr.cosRef, p.Lat * kmPerDeg
}

// Inverse unprojects planar kilometers back to lon/lat.
func (pr Projection) Inverse(x, y float64) Point {
	const kmPerDeg = math.Pi / 180 * EarthRadiusKm
	if pr.cosRef == 0 {
		return Point{Lon: 0, Lat: y / kmPerDeg}
	}
	return Point{Lon: x / (kmPerDeg * pr.cosRef), Lat: y / kmPerDeg}
}

// LocalProjection returns a projection centered for accurate distances near p.
func LocalProjection(p Point) Projection {
	return NewProjection(p.Lat)
}
