package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"igdb/internal/geo"
)

// checkBuffer asserts what Buffer promises on one corridor: Covers and
// Contains decide exactly what the distances they skip would decide, and
// BBox holds every point Contains accepts.
func checkBuffer(t *testing.T, buf Buffer, query, probes []geo.Point) {
	t.Helper()
	r := buf.RadiusKm
	if got, want := buf.Covers(query), HausdorffDirectedKm(query, buf.Line) <= r; got != want {
		t.Fatalf("Covers = %v, HausdorffDirectedKm %.9g <= %.9g is %v\nbuffer %v\nquery %v",
			got, HausdorffDirectedKm(query, buf.Line), r, want, buf.Line, query)
	}
	box := buf.BBox()
	check := func(p geo.Point) {
		d, _ := DistanceToPolylineKm(p, buf.Line)
		in := buf.Contains(p)
		if in != (d <= r) {
			t.Fatalf("Contains(%v) = %v at %.9g km, radius %.9g\nbuffer %v", p, in, d, r, buf.Line)
		}
		if in && !box.Contains(p) {
			t.Fatalf("Contains(%v) at %.9g km, radius %.9g, outside BBox %+v\nbuffer %v", p, d, r, box, buf.Line)
		}
	}
	for _, p := range query {
		check(p)
	}
	for _, p := range probes {
		check(p)
	}
}

// The case a degree-for-degree longitude pad misses: 60°N, where a degree
// of longitude is half as long as at the equator.
func TestBufferBBoxHighLatitude(t *testing.T) {
	buf := NewBuffer([]geo.Point{{Lon: 10, Lat: 60}, {Lon: 10, Lat: 61}}, 25*geo.KmPerMile)
	p := geo.Point{Lon: 10.7, Lat: 60.5}
	if !buf.Contains(p) {
		t.Fatalf("%v should be inside the corridor", p)
	}
	if !buf.BBox().Contains(p) {
		t.Errorf("BBox %+v misses %v, which Contains accepts", buf.BBox(), p)
	}
	checkBuffer(t, buf, []geo.Point{p}, nil)
}

func TestBufferEdgeCases(t *testing.T) {
	p := geo.Point{Lon: 1, Lat: 1}
	for _, r := range []float64{0, 40, math.Inf(1), math.NaN(), -1} {
		for _, line := range [][]geo.Point{nil, {p}, {{Lon: 0, Lat: 0}, {Lon: 2, Lat: 0}}} {
			buf := NewBuffer(line, r)
			d, _ := DistanceToPolylineKm(p, line)
			if got := buf.Contains(p); got != (d <= r) {
				t.Errorf("r=%v line=%v: Contains = %v, distance %v", r, line, got, d)
			}
			if math.IsInf(r, 1) {
				continue // Covers and BBox hold for a finite radius
			}
			for _, q := range [][]geo.Point{nil, {p}, line} {
				if got, want := buf.Covers(q), HausdorffDirectedKm(q, line) <= r; got != want {
					t.Errorf("r=%v line=%v: Covers(%v) = %v, want %v", r, line, q, got, want)
				}
			}
		}
	}
	// A segment of NaN coordinates is skipped by the distance, as by Contains.
	nan := geo.Point{Lon: math.NaN(), Lat: math.NaN()}
	buf := NewBuffer([]geo.Point{nan, nan}, math.Inf(1))
	if d, _ := DistanceToPolylineKm(p, buf.Line); buf.Contains(p) != (d <= buf.RadiusKm) {
		t.Errorf("NaN line: Contains = %v, distance %v", buf.Contains(p), d)
	}
}

// randomLine draws n vertices stepping up to step degrees from an anchor,
// wrapping longitude and clamping latitude as real coordinates would.
func randomLine(rng *rand.Rand, anchor geo.Point, n int, step float64) []geo.Point {
	line := make([]geo.Point, 0, n)
	cur := anchor
	for i := 0; i < n; i++ {
		line = append(line, cur)
		cur = geo.Point{
			Lon: wrapLon180(cur.Lon + (rng.Float64()*2-1)*step),
			Lat: math.Max(-90, math.Min(90, cur.Lat+(rng.Float64()*2-1)*step)),
		}
	}
	return line
}

// nearLine returns points around line at up to 1.5 radii, plus points
// placed just inside and just outside the corridor's extremes: along each
// segment's parallel, where the local projection reaches farthest in
// longitude, and due north, south, east and west of each vertex.
func nearLine(rng *rand.Rand, line []geo.Point, r float64, n int) []geo.Point {
	if len(line) == 0 {
		return nil
	}
	var out []geo.Point
	add := func(p geo.Point) {
		out = append(out, geo.Point{Lon: wrapLon180(p.Lon), Lat: math.Max(-90, math.Min(90, p.Lat))})
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(len(line))
		c := line[j]
		if j+1 < len(line) {
			c = geo.Interpolate(c, line[j+1], rng.Float64())
		}
		add(geo.Destination(c, rng.Float64()*360, rng.Float64()*1.5*r))
	}
	for _, f := range []float64{1 - 1e-6, 1 + 1e-6} {
		for i, v := range line {
			for _, brng := range []float64{0, 90, 180, 270} {
				add(geo.Destination(v, brng, f*r))
			}
			if i == 0 {
				continue
			}
			u := line[i-1]
			cosRef := math.Cos((u.Lat + v.Lat) / 2 * math.Pi / 180)
			dLon := f * r / (kmPerDeg * cosRef)
			add(geo.Point{Lon: v.Lon + dLon, Lat: v.Lat})
			add(geo.Point{Lon: u.Lon - dLon, Lat: u.Lat})
			add(geo.Point{Lon: v.Lon, Lat: v.Lat + f*r/kmPerDeg})
		}
	}
	return out
}

// TestBufferMatchesDistances checks Buffer against the distances on random
// corridors: anywhere on the globe, across the antimeridian, above 80° of
// latitude, and empty or one-vertex, with radii from 0 to 500 km.
func TestBufferMatchesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	anchors := []func() geo.Point{
		func() geo.Point { return geo.Point{Lon: rng.Float64()*360 - 180, Lat: rng.Float64()*180 - 90} },
		func() geo.Point { return geo.Point{Lon: 179 + rng.Float64()*2, Lat: rng.Float64()*120 - 60} },
		func() geo.Point {
			return geo.Point{Lon: rng.Float64()*360 - 180, Lat: (80 + rng.Float64()*10) * float64(1-2*rng.Intn(2))}
		},
	}
	for trial := 0; trial < 3000; trial++ {
		anchor := anchors[trial%len(anchors)]()
		anchor.Lon = wrapLon180(anchor.Lon)
		r := rng.Float64() * 500
		if trial%10 == 0 {
			r = 0
		}
		step := []float64{0.05, 0.5, 3}[rng.Intn(3)]
		line := randomLine(rng, anchor, rng.Intn(7), step)
		buf := NewBuffer(line, r)
		// Query lines hug the corridor so that Covers answers both ways.
		var query []geo.Point
		if len(line) > 0 && rng.Intn(4) > 0 {
			query = nearLine(rng, line, r*rng.Float64(), 1+rng.Intn(4))
		} else {
			query = randomLine(rng, anchor, rng.Intn(4), step)
		}
		checkBuffer(t, buf, query, nearLine(rng, line, r, 20))
	}
}

// decodeBufferCase turns fuzz bytes into a corridor, a query line and its
// probes: a radius (two bytes, 0 to 500 km in 10 m steps), an anchor (two
// int16s in centidegrees), the number of corridor vertices, then vertices
// as int16 millidegree offsets from the anchor. The first vertices form the
// corridor and the rest the query line.
func decodeBufferCase(data []byte) (buf Buffer, query []geo.Point) {
	if len(data) < 7 {
		return Buffer{}, nil
	}
	u16 := func(i int) int16 { return int16(binary.LittleEndian.Uint16(data[i:])) }
	r := float64(binary.LittleEndian.Uint16(data)%50001) / 100
	anchor := geo.Point{Lon: float64(u16(2)) / 100, Lat: float64(u16(4)) / 100}
	k := int(data[6] % 9)
	var pts []geo.Point
	for i := 7; i+4 <= len(data); i += 4 {
		pts = append(pts, geo.Point{
			Lon: wrapLon180(anchor.Lon + float64(u16(i))/1000),
			Lat: math.Max(-90, math.Min(90, anchor.Lat+float64(u16(i+2))/1000)),
		})
	}
	k = min(k, len(pts))
	return NewBuffer(pts[:k], r), pts[k:]
}

func FuzzBuffer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		buf, query := decodeBufferCase(data)
		checkBuffer(t, buf, query, buf.Line)
	})
}
