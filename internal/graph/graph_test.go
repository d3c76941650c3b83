package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"igdb/internal/leakgate"
)

// TestMain fails the package when its tests leave goroutines running
// its code.
func TestMain(m *testing.M) { leakgate.Main(m, "igdb/internal/graph") }

// diamond builds:
//
//	0 →1→ 1 →1→ 3
//	0 →4→ 2 →1→ 3        (long southern route)
//	1 →1→ 2
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 4)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 2, 1)
	return g
}

func TestShortestPathBasic(t *testing.T) {
	g := diamond()
	path, w, ok := g.ShortestPath(0, 3)
	if !ok || w != 2 || !reflect.DeepEqual(path, []int{0, 1, 3}) {
		t.Errorf("got path=%v w=%v ok=%v", path, w, ok)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := diamond()
	path, w, ok := g.ShortestPath(2, 2)
	if !ok || w != 0 || !reflect.DeepEqual(path, []int{2}) {
		t.Errorf("self path = %v w=%v ok=%v", path, w, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if _, _, ok := g.ShortestPath(0, 2); ok {
		t.Error("node 2 should be unreachable")
	}
	// Directed: reverse direction unreachable too.
	if _, _, ok := g.ShortestPath(1, 0); ok {
		t.Error("directed edge should not be traversable backwards")
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		u, v int
		w    float64
	}{
		{-1, 0, 1}, {0, 5, 1}, {0, 1, -2}, {0, 1, math.NaN()},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d,%v) should panic", c.u, c.v, c.w)
				}
			}()
			g := New(2)
			g.AddEdge(c.u, c.v, c.w)
		}()
	}
}

func TestAddNodeAndCounts(t *testing.T) {
	g := New(0)
	a, b := g.AddNode(), g.AddNode()
	g.AddUndirected(a, b, 2.5)
	if g.Len() != 2 || g.NumEdges() != 2 {
		t.Errorf("Len=%d NumEdges=%d", g.Len(), g.NumEdges())
	}
	if len(g.Neighbors(a)) != 1 || g.Neighbors(a)[0].To != b {
		t.Error("neighbors wrong")
	}
}

func randomGraph(r *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, r.Float64()*100)
	}
	return g
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(40)
		g := randomGraph(r, n, n*3)
		src := r.Intn(n)
		want := g.BellmanFord(src)
		got := g.AllShortestFrom(src)
		for i := range want {
			if math.IsInf(want[i], 1) != math.IsInf(got[i], 1) {
				t.Fatalf("trial %d node %d: reachability disagrees", trial, i)
			}
			if !math.IsInf(want[i], 1) && math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("trial %d node %d: dijkstra %v vs bellman-ford %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestPathWeightConsistency(t *testing.T) {
	// The returned path's edge weights must sum to the returned weight.
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(30)
		g := randomGraph(r, n, n*4)
		src, dst := r.Intn(n), r.Intn(n)
		path, w, ok := g.ShortestPath(src, dst)
		if !ok {
			continue
		}
		if path[0] != src || path[len(path)-1] != dst {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		if math.Abs(g.pathWeight(path)-w) > 1e-9 {
			t.Fatalf("path weight %v != reported %v", g.pathWeight(path), w)
		}
	}
}

func TestAStarMatchesDijkstra(t *testing.T) {
	// Heuristic h=0 must reproduce Dijkstra exactly; a consistent positive
	// heuristic must give the same weight.
	r := rand.New(rand.NewSource(21))
	n := 50
	// Build a geometric graph where nodes are on a line, so |i-j| is an
	// admissible heuristic when all edges have weight >= distance.
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddUndirected(i, i+1, 1)
	}
	for i := 0; i < 40; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			d := math.Abs(float64(u - v))
			g.AddUndirected(u, v, d+r.Float64()*3)
		}
	}
	for trial := 0; trial < 20; trial++ {
		src, dst := r.Intn(n), r.Intn(n)
		_, w1, ok1 := g.ShortestPath(src, dst)
		h := func(node int) float64 { return math.Abs(float64(node - dst)) }
		_, w2, ok2 := g.ShortestPathWithHeuristic(src, dst, h)
		if ok1 != ok2 || math.Abs(w1-w2) > 1e-9 {
			t.Fatalf("A* %v/%v vs dijkstra %v/%v", w2, ok2, w1, ok1)
		}
	}
}

func TestKShortestDiamond(t *testing.T) {
	g := diamond()
	paths := g.KShortest(0, 3, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	// 0-1-3 (2), 0-1-2-3 (3), 0-2-3 (5)
	wantWeights := []float64{2, 3, 5}
	for i, p := range paths {
		if math.Abs(p.Weight-wantWeights[i]) > 1e-9 {
			t.Errorf("path %d weight = %v, want %v (%v)", i, p.Weight, wantWeights[i], p.Nodes)
		}
	}
	if !reflect.DeepEqual(paths[0].Nodes, []int{0, 1, 3}) {
		t.Errorf("first path = %v", paths[0].Nodes)
	}
}

func TestKShortestLoopless(t *testing.T) {
	g := diamond()
	g.AddUndirected(1, 0, 0.1) // tempt loops
	for _, p := range g.KShortest(0, 3, 5) {
		seen := make(map[int]bool)
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("path %v revisits node %d", p.Nodes, n)
			}
			seen[n] = true
		}
	}
}

func TestKShortestFewerThanK(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	paths := g.KShortest(0, 2, 10)
	if len(paths) != 1 {
		t.Errorf("only one path exists, got %d", len(paths))
	}
	if got := g.KShortest(0, 2, 0); got != nil {
		t.Error("k=0 should be nil")
	}
	if got := g.KShortest(2, 0, 3); got != nil {
		t.Error("unreachable should be nil")
	}
}

func TestKShortestNonDecreasing(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	g := randomGraph(r, 20, 80)
	paths := g.KShortest(0, 19, 6)
	for i := 1; i < len(paths); i++ {
		if paths[i].Weight < paths[i-1].Weight-1e-9 {
			t.Fatalf("weights decrease: %v then %v", paths[i-1].Weight, paths[i].Weight)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddUndirected(0, 1, 1)
	g.AddUndirected(1, 2, 1)
	g.AddEdge(3, 4, 1) // directed still joins a weak component
	labels, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (0-1-2, 3-4, 5)", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Error("3,4 should share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("5 should be isolated")
	}
}

func TestComponentsEmpty(t *testing.T) {
	g := New(0)
	if _, count := g.Components(); count != 0 {
		t.Error("empty graph has 0 components")
	}
}

func TestBellmanFordBadSource(t *testing.T) {
	g := New(2)
	d := g.BellmanFord(-1)
	if !math.IsInf(d[0], 1) {
		t.Error("invalid source should leave all Inf")
	}
}

func BenchmarkDijkstraGrid(b *testing.B) {
	// 100x100 grid ≈ a continental right-of-way road mesh.
	const side = 100
	g := New(side * side)
	id := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				g.AddUndirected(id(x, y), id(x+1, y), 1)
			}
			if y+1 < side {
				g.AddUndirected(id(x, y), id(x, y+1), 1)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPath(0, side*side-1)
	}
}
