package graph

import (
	"math"
	"testing"
)

// ring builds a weighted undirected cycle 0-1-...-n-1-0 with unit weights.
func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddUndirected(i, (i+1)%n, 1)
	}
	return g
}

func TestViewMatchesGraphWhenNothingDisabled(t *testing.T) {
	g := ring(8)
	g.AddUndirected(0, 4, 0.5) // a chord
	v := NewView(g)

	wantLabels, wantCount := g.Components()
	gotLabels, gotCount := v.Components()
	if gotCount != wantCount {
		t.Fatalf("components = %d, want %d", gotCount, wantCount)
	}
	for i := range wantLabels {
		if (wantLabels[i] == -1) != (gotLabels[i] == -1) {
			t.Fatalf("node %d label mismatch", i)
		}
	}
	for src := 0; src < g.Len(); src++ {
		want := g.AllShortestFrom(src)
		got := v.AllShortestFrom(src)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("dist[%d→%d] = %g, want %g", src, i, got[i], want[i])
			}
		}
	}
}

func TestViewDisableEdge(t *testing.T) {
	cases := []struct {
		name       string
		edges      [][2]int // disabled undirected edges
		src, dst   int
		wantKm     float64
		wantOK     bool
		wantCompat int // expected component count
	}{
		{"no mask", nil, 0, 4, 4, true, 1},
		{"one cut reroutes", [][2]int{{0, 1}}, 0, 4, 4, true, 1},
		{"two cuts partition", [][2]int{{0, 1}, {7, 0}}, 0, 4, 0, false, 2},
		{"reversed key normalizes", [][2]int{{1, 0}, {0, 7}}, 0, 4, 0, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewView(ring(8))
			for _, e := range tc.edges {
				v.DisableEdge(e[0], e[1])
			}
			km := v.AllShortestFrom(tc.src)[tc.dst]
			if ok := !math.IsInf(km, 1); ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if tc.wantOK && km != tc.wantKm {
				t.Fatalf("km = %g, want %g", km, tc.wantKm)
			}
			if _, count := v.Components(); count != tc.wantCompat {
				t.Fatalf("components = %d, want %d", count, tc.wantCompat)
			}
		})
	}
}

func TestViewDisableNode(t *testing.T) {
	// Star: 0 at the center, leaves 1..4.
	g := New(5)
	for i := 1; i < 5; i++ {
		g.AddUndirected(0, i, 1)
	}
	v := NewView(g)
	v.DisableNode(0)

	labels, count := v.Components()
	if count != 4 {
		t.Fatalf("components after hub failure = %d, want 4", count)
	}
	if labels[0] != -1 {
		t.Fatalf("disabled node labeled %d, want -1", labels[0])
	}
	if dist := v.AllShortestFrom(1); !math.IsInf(dist[2], 1) {
		t.Fatalf("leaf 1 should not reach leaf 2 without the hub, got %g", dist[2])
	}
	// Dijkstra from a disabled node reaches nothing, not even itself.
	if dist := v.AllShortestFrom(0); !math.IsInf(dist[0], 1) {
		t.Fatalf("disabled source should be unreachable, got %g", dist[0])
	}
	// Out-of-range disables are ignored rather than panicking.
	v.DisableNode(-1)
	v.DisableNode(99)
}

func TestViewResetReuse(t *testing.T) {
	v := NewView(ring(6))
	v.DisableEdge(0, 1)
	v.DisableNode(3)
	if _, count := v.Components(); count != 2 {
		t.Fatalf("masked components = %d, want 2", count)
	}
	v.Reset()
	if _, count := v.Components(); count != 1 {
		t.Fatalf("components after Reset = %d, want 1", count)
	}
	if v.DisabledEdges() != 0 {
		t.Fatalf("DisabledEdges after Reset = %d", v.DisabledEdges())
	}
	if km := v.AllShortestFrom(0)[3]; km != 3 {
		t.Fatalf("distance after Reset = %g, want 3", km)
	}
}
