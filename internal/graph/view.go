package graph

// View is a masked subgraph of an immutable Graph: individual nodes and
// undirected edges can be disabled without copying the adjacency list, so
// thousands of what-if variants of one graph can be evaluated cheaply.
// Masks are undirected — disabling edge (u,v) removes both arcs — matching
// how every network in iGDB proper is built (AddUndirected).
//
// A View is NOT safe for concurrent use; the intended pattern (used by
// internal/simulate's worker pool) is one long-lived View per goroutine
// over a shared Graph, calling Reset between evaluations to reuse the
// internal scratch buffers.
type View struct {
	g       *Graph
	nodeOff []bool
	edgeOff map[[2]int]bool

	// rev caches the reverse adjacency for undirected traversal, built on
	// first Components call (the Graph beneath a View never changes).
	rev [][]int

	// Dijkstra scratch, reused across calls.
	s *Search
}

// NewView creates a view of g with nothing disabled.
func NewView(g *Graph) *View {
	return &View{
		g:       g,
		nodeOff: make([]bool, g.Len()),
		edgeOff: make(map[[2]int]bool),
	}
}

// Reset re-enables every node and edge, keeping allocations for reuse.
func (v *View) Reset() {
	for i := range v.nodeOff {
		v.nodeOff[i] = false
	}
	clear(v.edgeOff)
}

// DisableNode removes u and all its incident arcs from the view. Out-of-range
// nodes are ignored (a scenario can reference a node absent at this scale).
func (v *View) DisableNode(u int) {
	if u >= 0 && u < len(v.nodeOff) {
		v.nodeOff[u] = true
	}
}

// DisableEdge removes the undirected edge u-v (both arcs) from the view.
func (v *View) DisableEdge(u, v2 int) {
	if u > v2 {
		u, v2 = v2, u
	}
	v.edgeOff[[2]int{u, v2}] = true
}

// NodeEnabled reports whether u is present in the view.
func (v *View) NodeEnabled(u int) bool {
	return u >= 0 && u < len(v.nodeOff) && !v.nodeOff[u]
}

// edgeEnabled reports whether the arc u→w survives the mask.
func (v *View) edgeEnabled(u, w int) bool {
	if v.nodeOff[u] || v.nodeOff[w] {
		return false
	}
	if len(v.edgeOff) == 0 {
		return true
	}
	a, b := u, w
	if a > b {
		a, b = b, a
	}
	return !v.edgeOff[[2]int{a, b}]
}

// DisabledEdges returns the number of distinct undirected edges masked out.
func (v *View) DisabledEdges() int { return len(v.edgeOff) }

// Components labels every enabled node with its connected component
// (treating arcs as undirected) and returns the number of components.
// Disabled nodes get label -1 and are not counted.
func (v *View) Components() (labels []int, count int) {
	n := v.g.Len()
	if v.rev == nil {
		v.rev = make([][]int, n)
		for u := 0; u < n; u++ {
			for _, e := range v.g.adj[u] {
				v.rev[e.To] = append(v.rev[e.To], u)
			}
		}
	}
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int
	for s := 0; s < n; s++ {
		if labels[s] != -1 || v.nodeOff[s] {
			continue
		}
		labels[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range v.g.adj[u] {
				if labels[e.To] == -1 && v.edgeEnabled(u, e.To) {
					labels[e.To] = count
					stack = append(stack, e.To)
				}
			}
			for _, w := range v.rev[u] {
				if labels[w] == -1 && v.edgeEnabled(u, w) {
					labels[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// AllShortestFrom returns the distance from src to every node over the
// masked graph (Inf when unreachable, including every node when src itself
// is disabled). The returned slice is freshly allocated per call.
func (v *View) AllShortestFrom(src int) []float64 {
	s := v.search(src, nil)
	return append([]float64(nil), s.dist...)
}

// ShortestPath returns the minimum-weight masked path from src to dst.
func (v *View) ShortestPath(src, dst int) (path []int, weight float64, ok bool) {
	if dst < 0 || dst >= v.g.Len() {
		return nil, 0, false
	}
	return v.search(src, []int{dst}).path(src, dst)
}

// search runs the masked Dijkstra on the view's reused Search.
func (v *View) search(src int, dsts []int) *Search {
	if v.s == nil {
		v.s = v.g.NewSearch()
	}
	if !v.NodeEnabled(src) {
		src = -1 // a disabled source reaches nothing
	}
	v.s.run(src, dsts, nil, func(u, w int) bool { return !v.edgeEnabled(u, w) })
	return v.s
}
