package graph

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// item is a priority-queue element.
type item struct {
	node int
	dist float64
}

// minHeap is a binary min-heap of items keyed on dist. push and pop make
// exactly the comparisons and moves container/heap's Push and Pop make on
// the same slice, so equal priorities leave the heap in the same order and
// every search settles its ties as a container/heap search would; the
// element being sifted is held aside instead of swapped level by level.
type minHeap []item

func (q *minHeap) push(it item) {
	h := append(*q, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(it.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	*q = h
}

func (q *minHeap) pop() item {
	h := *q
	n := len(h) - 1
	top, x := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2 // right child
		}
		if !(h[j].dist < x.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	*q = h[:n]
	return top
}

// Search is the scratch state of shortest-path queries on one graph:
// distances, predecessors, settled and target flags, and the heap. A
// goroutine that answers many queries keeps one Search and allocates it
// once; each query resets only the entries the previous one touched. A
// Search is not safe for concurrent use; give each goroutine its own (as
// Parallel does).
type Search struct {
	g       *Graph
	dist    []float64
	prev    []int
	done    []bool
	target  []bool
	touched []int // nodes whose dist is finite
	q       minHeap
}

// NewSearch returns reusable query state for g.
func (g *Graph) NewSearch() *Search {
	s := &Search{g: g}
	s.reset()
	return s
}

// reset returns every array to its unreached state, sizing them to the
// graph when nodes were added since the last query.
func (s *Search) reset() {
	if n := len(s.g.adj); len(s.dist) != n {
		s.dist = make([]float64, n)
		s.prev = make([]int, n)
		s.done = make([]bool, n)
		s.target = make([]bool, n)
		for i := range s.dist {
			s.dist[i] = math.Inf(1)
			s.prev[i] = -1
		}
	} else {
		for _, v := range s.touched {
			s.dist[v] = math.Inf(1)
			s.prev[v] = -1
			s.done[v] = false
		}
	}
	s.touched = s.touched[:0]
	s.q = s.q[:0]
}

// run settles nodes from src in order of distance (distance plus h(node)
// when h is not nil), skipping arcs u→v for which skip reports true. It
// stops once every node in dsts has settled, or when nothing is left to
// settle; with no dsts it settles everything reachable. A search for many
// destinations therefore makes the same heap moves as a search for any one
// of them up to the moment that one settles, and a settled node's distance
// and predecessor never change afterwards (weights are non-negative), so
// each destination's path is the one a single-destination search returns.
func (s *Search) run(src int, dsts []int, h func(int) float64, skip func(u, v int) bool) {
	s.reset()
	if src < 0 || src >= len(s.dist) {
		return
	}
	remaining := 0
	for _, d := range dsts {
		if !s.target[d] {
			s.target[d] = true
			remaining++
		}
	}
	s.dist[src] = 0
	s.touched = append(s.touched, src)
	prio := 0.0
	if h != nil {
		prio = h(src)
	}
	s.q.push(item{node: src, dist: prio})
	for len(s.q) > 0 {
		u := s.q.pop().node
		if s.done[u] {
			continue
		}
		s.done[u] = true
		if s.target[u] {
			s.target[u] = false
			if remaining--; remaining == 0 {
				break
			}
		}
		for _, e := range s.g.adj[u] {
			if skip != nil && skip(u, e.To) {
				continue
			}
			if nd := s.dist[u] + e.Weight; nd < s.dist[e.To] {
				if math.IsInf(s.dist[e.To], 1) {
					s.touched = append(s.touched, e.To)
				}
				s.dist[e.To] = nd
				s.prev[e.To] = u
				prio := nd
				if h != nil {
					prio += h(e.To)
				}
				s.q.push(item{node: e.To, dist: prio})
			}
		}
	}
	for _, d := range dsts {
		s.target[d] = false // destinations never reached
	}
}

// path returns the last query's path to dst, its weight, and whether dst
// was reached.
func (s *Search) path(src, dst int) ([]int, float64, bool) {
	if math.IsInf(s.dist[dst], 1) {
		return nil, 0, false
	}
	return reconstruct(s.prev, src, dst), s.dist[dst], true
}

// ShortestPath is Graph.ShortestPath on reused state.
func (s *Search) ShortestPath(src, dst int) (path []int, weight float64, ok bool) {
	return s.ShortestPathWithHeuristic(src, dst, nil)
}

// ShortestPathWithHeuristic is Graph.ShortestPathWithHeuristic on reused
// state.
func (s *Search) ShortestPathWithHeuristic(src, dst int, h func(int) float64) (path []int, weight float64, ok bool) {
	s.run(src, []int{dst}, h, nil)
	return s.path(src, dst)
}

// ShortestPaths runs one Dijkstra from src that stops once its last
// destination settles, and returns for each dsts[i] the path and weight
// ShortestPath(src, dsts[i]) returns; Nodes is nil where dsts[i] is
// unreachable. dsts may repeat and may contain src.
func (s *Search) ShortestPaths(src int, dsts []int) []Path {
	s.run(src, dsts, nil, nil)
	out := make([]Path, len(dsts))
	for i, d := range dsts {
		if nodes, w, ok := s.path(src, d); ok {
			out[i] = Path{Nodes: nodes, Weight: w}
		}
	}
	return out
}

// Parallel calls fn(st, i) for every i in [0, n) on up to
// runtime.GOMAXPROCS(0) goroutines. Each goroutine makes its own state with
// newState and passes it to every call it makes, so per-query scratch such
// as a Search is allocated once per goroutine. Goroutines claim indexes
// from a shared counter, so fn must write its result to slot i for the
// output not to depend on scheduling. A panic in fn stops the remaining
// calls and is re-raised in the caller once every goroutine has returned.
func Parallel[S any](n int, newState func() S, fn func(st S, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make(chan any, 1)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					next.Store(int64(n))
					select {
					case panics <- r:
					default:
					}
				}
			}()
			st := newState()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(st, i)
			}
		}()
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
}
