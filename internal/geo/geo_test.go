package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Well-known city coordinates used across the geo tests.
var (
	madrid = Point{Lon: -3.7038, Lat: 40.4168}
	berlin = Point{Lon: 13.4050, Lat: 52.5200}
	paris  = Point{Lon: 2.3522, Lat: 48.8566}
	sydney = Point{Lon: 151.2093, Lat: -33.8688}
	lima   = Point{Lon: -77.0428, Lat: -12.0464}
)

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name string
		a, b Point
		want float64 // km
		tol  float64
	}{
		{"madrid-berlin", madrid, berlin, 1869, 15},
		{"paris-sydney", paris, sydney, 16960, 100},
		{"lima-sydney", lima, sydney, 12845, 100},
		{"same-point", madrid, madrid, 0, 1e-9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Haversine(c.a, c.b)
			if math.Abs(got-c.want) > c.tol {
				t.Errorf("Haversine(%v,%v) = %.1f, want %.1f ± %.1f", c.a, c.b, got, c.want, c.tol)
			}
		})
	}
}

func TestHaversineSymmetric(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2 float64) bool {
		a := Point{Lon: math.Mod(lon1, 180), Lat: math.Mod(lat1, 90)}
		b := Point{Lon: math.Mod(lon2, 180), Lat: math.Mod(lat2, 90)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2, lon3, lat3 float64) bool {
		a := Point{Lon: math.Mod(lon1, 180), Lat: math.Mod(lat1, 90)}
		b := Point{Lon: math.Mod(lon2, 180), Lat: math.Mod(lat2, 90)}
		c := Point{Lon: math.Mod(lon3, 180), Lat: math.Mod(lat3, 90)}
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	// Travelling the measured distance along the initial bearing must land
	// on the target (property of great-circle navigation).
	pairs := [][2]Point{{madrid, berlin}, {paris, sydney}, {lima, paris}}
	for _, pr := range pairs {
		d := Haversine(pr[0], pr[1])
		brng := InitialBearing(pr[0], pr[1])
		got := Destination(pr[0], brng, d)
		if err := Haversine(got, pr[1]); err > 1.0 {
			t.Errorf("Destination(%v) landed %.3f km from %v", pr[0], err, pr[1])
		}
	}
}

func TestDestinationNorthPoleWrap(t *testing.T) {
	p := Destination(Point{Lon: 0, Lat: 89}, 0, 300)
	if !p.Valid() {
		t.Errorf("destination over pole produced invalid point %v", p)
	}
}

func TestInitialBearingCardinal(t *testing.T) {
	origin := Point{Lon: 0, Lat: 0}
	cases := []struct {
		to   Point
		want float64
	}{
		{Point{Lon: 0, Lat: 10}, 0},
		{Point{Lon: 10, Lat: 0}, 90},
		{Point{Lon: 0, Lat: -10}, 180},
		{Point{Lon: -10, Lat: 0}, 270},
	}
	for _, c := range cases {
		got := InitialBearing(origin, c.to)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("InitialBearing(origin, %v) = %.2f, want %.2f", c.to, got, c.want)
		}
	}
}

func TestMidpointIsEquidistant(t *testing.T) {
	m := Midpoint(madrid, berlin)
	d1, d2 := Haversine(madrid, m), Haversine(m, berlin)
	if math.Abs(d1-d2) > 0.5 {
		t.Errorf("midpoint not equidistant: %.2f vs %.2f km", d1, d2)
	}
}

func TestInterpolateEndpointsAndMonotone(t *testing.T) {
	if got := Interpolate(madrid, berlin, 0); got != madrid {
		t.Errorf("Interpolate(...,0) = %v, want start", got)
	}
	if got := Interpolate(madrid, berlin, 1); got != berlin {
		t.Errorf("Interpolate(...,1) = %v, want end", got)
	}
	total := Haversine(madrid, berlin)
	prev := 0.0
	for f := 0.1; f < 1; f += 0.1 {
		p := Interpolate(madrid, berlin, f)
		d := Haversine(madrid, p)
		if d < prev {
			t.Fatalf("interpolation not monotone at f=%.1f", f)
		}
		if math.Abs(d-f*total) > 2 {
			t.Errorf("Interpolate f=%.1f at %.1f km, want %.1f", f, d, f*total)
		}
		prev = d
	}
}

func TestPathLengthKm(t *testing.T) {
	direct := Haversine(madrid, berlin)
	via := PathLengthKm([]Point{madrid, paris, berlin})
	if via <= direct {
		t.Errorf("detour via Paris (%.0f km) should exceed direct (%.0f km)", via, direct)
	}
	if got := PathLengthKm([]Point{madrid}); got != 0 {
		t.Errorf("single-point path length = %f, want 0", got)
	}
	if got := PathLengthKm(nil); got != 0 {
		t.Errorf("nil path length = %f, want 0", got)
	}
}

func TestNormalizeLon(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{190, -170}, {-190, 170}, {360, 0}, {540, 180}, {0, 0}, {179.5, 179.5},
	}
	for _, c := range cases {
		if got := NormalizeLon(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalizeLon(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// NormalizeLon returns at once on infinite, NaN and huge longitudes, and
// within ±540 returns the same bits as the subtraction loops alone.
func TestNormalizeLonExtremes(t *testing.T) {
	for _, in := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := NormalizeLon(in); !math.IsNaN(got) {
			t.Errorf("NormalizeLon(%v) = %v, want NaN", in, got)
		}
	}
	// 1e16 is exact in float64 and 1e16 mod 360 = 280.
	for _, c := range []struct{ in, want float64 }{{1e16, -80}, {-1e16, 80}} {
		if got := NormalizeLon(c.in); got != c.want {
			t.Errorf("NormalizeLon(%g) = %v, want %v", c.in, got, c.want)
		}
	}
	loops := func(lon float64) float64 {
		for lon > 180 {
			lon -= 360
		}
		for lon < -180 {
			lon += 360
		}
		return lon
	}
	r := rand.New(rand.NewSource(1))
	ins := []float64{540, -540, 180, -180, 360, -360, math.Nextafter(-540, 0), math.Nextafter(540, 0), math.Nextafter(180, 181)}
	for i := 0; i < 100000; i++ {
		ins = append(ins, 540-1080*r.Float64(), float64(i-50000)*0.0108)
	}
	for _, in := range ins {
		if got, want := NormalizeLon(in), loops(in); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeLon(%v) = %v, the loops give %v", in, got, want)
		}
	}
}

func TestBBox(t *testing.T) {
	b := BBoxOf([]Point{madrid, berlin, paris})
	if !b.Contains(paris) || !b.Contains(madrid) || !b.Contains(berlin) {
		t.Fatal("bbox must contain its defining points")
	}
	if b.Contains(sydney) {
		t.Error("bbox should not contain Sydney")
	}
	padded := b.Pad(5)
	if padded.MinLon >= b.MinLon || padded.MaxLat <= b.MaxLat {
		t.Error("Pad must grow the box")
	}
}

func TestBBoxPadClampsLatitude(t *testing.T) {
	b := BBox{MinLon: 0, MaxLon: 1, MinLat: 85, MaxLat: 89}.Pad(10)
	if b.MaxLat > 90 || b.MinLat < -90 {
		t.Errorf("Pad must clamp latitude, got %+v", b)
	}
}

func TestEmptyBBoxExtend(t *testing.T) {
	b := EmptyBBox().Extend(paris)
	if b.MinLon != paris.Lon || b.MaxLon != paris.Lon {
		t.Errorf("extend of empty box should collapse to the point, got %+v", b)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(45)
	f := func(lon, lat float64) bool {
		p := Point{Lon: math.Mod(lon, 180), Lat: math.Mod(lat, 90)}
		x, y := pr.Forward(p)
		q := pr.Inverse(x, y)
		return math.Abs(p.Lon-q.Lon) < 1e-9 && math.Abs(p.Lat-q.Lat) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalProjectionPreservesShortDistances(t *testing.T) {
	pr := LocalProjection(paris)
	near := Point{Lon: paris.Lon + 0.1, Lat: paris.Lat + 0.1}
	x1, y1 := pr.Forward(paris)
	x2, y2 := pr.Forward(near)
	planar := math.Hypot(x2-x1, y2-y1)
	sphere := Haversine(paris, near)
	if math.Abs(planar-sphere)/sphere > 0.01 {
		t.Errorf("local projection distance error: planar %.3f vs sphere %.3f", planar, sphere)
	}
}

func TestPointValid(t *testing.T) {
	if !(Point{Lon: 0, Lat: 0}).Valid() {
		t.Error("origin must be valid")
	}
	bad := []Point{{181, 0}, {-181, 0}, {0, 91}, {0, -91}, {math.NaN(), 0}}
	for _, p := range bad {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}
