package spatial

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"igdb/internal/geo"
)

func randPoint(r *rand.Rand) geo.Point {
	return geo.Point{Lon: r.Float64()*360 - 180, Lat: r.Float64()*180 - 90}
}

func randEntries(r *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{P: randPoint(r), ID: i}
	}
	return out
}

// bruteNearest is the oracle for the k-d tree.
func bruteNearest(p geo.Point, entries []Entry) (Entry, float64) {
	best := math.Inf(1)
	var be Entry
	for _, e := range entries {
		if d := geo.Haversine(p, e.P); d < best {
			best = d
			be = e
		}
	}
	return be, best
}

func TestKDTreeNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	entries := randEntries(r, 500)
	tree := NewKDTree(entries)
	if tree.Len() != 500 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for q := 0; q < 200; q++ {
		p := randPoint(r)
		got, gotKm, ok := tree.Nearest(p)
		if !ok {
			t.Fatal("nearest on non-empty tree not ok")
		}
		_, wantKm := bruteNearest(p, entries)
		// Two sites may tie; compare distances, not IDs.
		if math.Abs(gotKm-wantKm) > 1e-6 {
			t.Fatalf("query %v: got %.6f km (id %d), brute force %.6f km", p, gotKm, got.ID, wantKm)
		}
	}
}

func TestKDTreeNearestPolesAndAntimeridian(t *testing.T) {
	entries := []Entry{
		{P: geo.Point{Lon: 179.9, Lat: 0}, ID: 1},
		{P: geo.Point{Lon: -179.9, Lat: 0}, ID: 2},
		{P: geo.Point{Lon: 0, Lat: 89.9}, ID: 3},
		{P: geo.Point{Lon: 10, Lat: 0}, ID: 4},
	}
	tree := NewKDTree(entries)
	// Query just across the antimeridian: ID 2 is closer than ID 1 only by
	// wrap-around; a naive lon/lat metric would pick wrongly.
	got, _, _ := tree.Nearest(geo.Point{Lon: -179.95, Lat: 0})
	if got.ID != 2 {
		t.Errorf("antimeridian query picked ID %d, want 2", got.ID)
	}
	got, _, _ = tree.Nearest(geo.Point{Lon: 175, Lat: 0.01})
	if got.ID != 1 {
		t.Errorf("east-side query picked ID %d, want 1", got.ID)
	}
	got, _, _ = tree.Nearest(geo.Point{Lon: 120, Lat: 89})
	if got.ID != 3 {
		t.Errorf("pole query picked ID %d, want 3", got.ID)
	}
}

func TestKDTreeEmpty(t *testing.T) {
	tree := NewKDTree(nil)
	if _, _, ok := tree.Nearest(geo.Point{}); ok {
		t.Error("empty tree should return ok=false")
	}
	if got := tree.KNearest(geo.Point{}, 3); got != nil {
		t.Error("empty tree KNearest should be nil")
	}
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	entries := randEntries(r, 300)
	tree := NewKDTree(entries)
	for q := 0; q < 50; q++ {
		p := randPoint(r)
		k := 1 + r.Intn(10)
		got := tree.KNearest(p, k)
		if len(got) != k {
			t.Fatalf("KNearest returned %d, want %d", len(got), k)
		}
		// Oracle: sort all by distance.
		dists := make([]float64, len(entries))
		for i, e := range entries {
			dists[i] = geo.Haversine(p, e.P)
		}
		sort.Float64s(dists)
		for i, res := range got {
			if math.Abs(res.Km-dists[i]) > 1e-6 {
				t.Fatalf("k=%d rank %d: got %.6f, want %.6f", k, i, res.Km, dists[i])
			}
			if i > 0 && got[i-1].Km > res.Km+1e-12 {
				t.Fatal("KNearest not sorted ascending")
			}
		}
	}
}

func TestKNearestKLargerThanTree(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	entries := randEntries(r, 5)
	tree := NewKDTree(entries)
	got := tree.KNearest(geo.Point{}, 50)
	if len(got) != 5 {
		t.Errorf("got %d results, want all 5", len(got))
	}
	if got := tree.KNearest(geo.Point{}, 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func BenchmarkKDTreeNearest(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tree := NewKDTree(randEntries(r, 7342)) // one entry per Natural Earth city
	queries := make([]geo.Point, 1024)
	for i := range queries {
		queries[i] = randPoint(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(queries[i%len(queries)])
	}
}
