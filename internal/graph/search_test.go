package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// refHeap runs container/heap over the same items: the reference minHeap
// must match move for move.
type refHeap []item

func (q refHeap) Len() int            { return len(q) }
func (q refHeap) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refHeap) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x interface{}) { *q = append(*q, x.(item)) }
func (q *refHeap) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// TestMinHeapMatchesContainerHeap: on random pushes and pops with few
// distinct priorities, minHeap pops the same items as container/heap and
// leaves its slice in the same order after every operation.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var got minHeap
		var want refHeap
		for op := 0; op < 600; op++ {
			if len(got) == 0 || r.Intn(3) > 0 {
				it := item{node: op, dist: float64(r.Intn(6))}
				got.push(it)
				heap.Push(&want, it)
			} else if g, w := got.pop(), heap.Pop(&want).(item); g != w {
				t.Fatalf("trial %d op %d: popped %+v, container/heap popped %+v", trial, op, g, w)
			}
			if !slices.Equal([]item(got), []item(want)) {
				t.Fatalf("trial %d op %d: heap order %v, container/heap %v", trial, op, got, want)
			}
		}
	}
}

// decodeQuery turns bytes into a small graph and one multi-destination
// query: b[0] sizes the graph (1-16 nodes), b[1] picks the source, b[2] the
// number of destinations, then one byte per destination, then (u, v, w)
// triples. Weights are 0-3 so ties and zero-weight arcs are common; bit 2
// of w makes the arc undirected.
func decodeQuery(b []byte) (g *Graph, src int, dsts []int) {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	n := 1 + next()%16
	g = New(n)
	src = next() % n
	for k := next() % 8; k > 0; k-- {
		dsts = append(dsts, next()%n)
	}
	for len(b) >= 3 {
		u, v, w := next()%n, next()%n, next()
		if w&4 != 0 {
			g.AddUndirected(u, v, float64(w%4))
		} else {
			g.AddEdge(u, v, float64(w%4))
		}
	}
	return g, src, dsts
}

// checkShortestPaths requires s.ShortestPaths(src, dsts) to return, node
// for node, the path and weight a fresh ShortestPath returns for each
// destination.
func checkShortestPaths(t *testing.T, g *Graph, s *Search, src int, dsts []int) {
	t.Helper()
	got := s.ShortestPaths(src, dsts)
	if len(got) != len(dsts) {
		t.Fatalf("ShortestPaths returned %d paths for %d destinations", len(got), len(dsts))
	}
	for i, dst := range dsts {
		nodes, w, ok := g.ShortestPath(src, dst)
		if !reflect.DeepEqual(got[i].Nodes, nodes) || got[i].Weight != w || (got[i].Nodes != nil) != ok {
			t.Fatalf("%d→%d: ShortestPaths gave %v (%v), ShortestPath gave %v (%v, ok=%v)",
				src, dst, got[i].Nodes, got[i].Weight, nodes, w, ok)
		}
	}
}

// TestShortestPathsMatchesShortestPath covers random graphs with tied and
// zero weights, unreachable destinations, the source among the
// destinations and repeated destinations, on one Search reused throughout.
func TestShortestPathsMatchesShortestPath(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(30)
		g := New(n)
		for m := r.Intn(3 * n); m > 0; m-- {
			u, v := r.Intn(n), r.Intn(n)
			g.AddUndirected(u, v, float64(r.Intn(3))) // 0, 1 or 2
		}
		g.AddNode() // always unreachable
		s := g.NewSearch()
		for q := 0; q < 5; q++ {
			src := r.Intn(n)
			dsts := []int{src, n} // the source and the isolated node
			for k := r.Intn(6); k > 0; k-- {
				dsts = append(dsts, r.Intn(n))
			}
			dsts = append(dsts, dsts[len(dsts)-1]) // a repeat
			r.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
			checkShortestPaths(t, g, s, src, dsts)
		}
	}
}

// FuzzShortestPaths holds the multi-destination search to ShortestPath on
// arbitrary small graphs; its seed corpus lives in testdata/fuzz.
func FuzzShortestPaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		g, src, dsts := decodeQuery(b)
		s := g.NewSearch()
		checkShortestPaths(t, g, s, src, dsts)
		checkShortestPaths(t, g, s, src, dsts) // reused state answers alike
	})
}

// TestSearchReuseMatchesFresh: one Search answering a sequence of A*
// queries (with Dijkstra and multi-destination queries between them)
// returns what a fresh Search returns for each, and follows
// the graph when it grows.
func TestSearchReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	n := 60
	// Nodes on a line: |i-j| is admissible when every arc weighs at least
	// that. Integer weights make equal priorities common.
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddUndirected(i, i+1, 1)
	}
	for i := 0; i < 80; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddUndirected(u, v, math.Abs(float64(u-v))+float64(r.Intn(3)))
		}
	}
	s := g.NewSearch()
	for q := 0; q < 300; q++ {
		if q == 150 {
			// A node added after the Search was made is still found.
			v := g.AddNode()
			g.AddUndirected(v, n-1, 1)
		}
		src, dst := r.Intn(g.Len()), r.Intn(g.Len())
		h := func(node int) float64 {
			if node >= n || dst >= n {
				return 0
			}
			return math.Abs(float64(node - dst))
		}
		gotP, gotW, gotOK := s.ShortestPathWithHeuristic(src, dst, h)
		wantP, wantW, wantOK := g.NewSearch().ShortestPathWithHeuristic(src, dst, h)
		if !reflect.DeepEqual(gotP, wantP) || gotW != wantW || gotOK != wantOK {
			t.Fatalf("query %d %d→%d: reused %v %v %v, fresh %v %v %v", q, src, dst, gotP, gotW, gotOK, wantP, wantW, wantOK)
		}
		switch q % 3 {
		case 1:
			s.ShortestPath(dst, src)
		case 2:
			s.ShortestPaths(src, []int{dst, r.Intn(g.Len())})
		}
	}
}

func TestParallelVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		seen := make([]int, n)
		Parallel(n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) {
			seen[i]++
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelReraisesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", r)
		}
	}()
	Parallel(100, func() struct{} { return struct{}{} }, func(_ struct{}, i int) {
		if i == 42 {
			panic("boom")
		}
	})
	t.Fatal("Parallel returned normally")
}

// TestParallelReraisesConcurrentPanics: four workers that panic at once
// all return, and Parallel re-raises one of their panics. The panic slot
// holds one value, so a worker that finds it full must drop its own
// rather than block.
func TestParallelReraisesConcurrentPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var started sync.WaitGroup
	started.Add(4)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Parallel(4, func() struct{} { return struct{}{} }, func(_ struct{}, i int) {
			started.Done()
			started.Wait() // every worker holds an index
			panic(fmt.Sprint("boom ", i))
		})
	}()
	select {
	case r := <-done:
		if s, _ := r.(string); !strings.HasPrefix(s, "boom ") {
			t.Fatalf("recovered %v, want a worker's panic", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Parallel did not return after all four workers panicked")
	}
}
