// Package graph implements the weighted-graph algorithms iGDB's path
// analyses rely on: Dijkstra shortest paths over right-of-way networks
// (standard-path inference, §3.1, one search per source for all its
// destinations), A* with a geographic heuristic, Yen's k-shortest paths
// (alternate-corridor analysis), and connected components (map sanity
// checks). Every search runs one loop over one typed heap (search.go);
// Parallel spreads independent queries over every core.
//
// Nodes are dense integer IDs assigned by the caller; edges are directed
// with non-negative float64 weights. Undirected graphs add both arcs.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Edge is a weighted arc to a target node.
type Edge struct {
	To     int
	Weight float64
}

// Graph is an adjacency-list weighted digraph.
type Graph struct {
	adj [][]Edge
}

// New creates a graph with n nodes (0..n-1) and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.adj) }

// NumEdges returns the number of directed arcs.
func (g *Graph) NumEdges() int {
	var n int
	for _, es := range g.adj {
		n += len(es)
	}
	return n
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds a directed arc u→v. It panics on out-of-range nodes or a
// negative weight (Dijkstra's precondition).
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj)))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
}

// AddUndirected adds arcs in both directions with the same weight.
func (g *Graph) AddUndirected(u, v int, w float64) {
	g.AddEdge(u, v, w)
	g.AddEdge(v, u, w)
}

// Neighbors returns the out-edges of u. The slice is shared; callers must
// not mutate it.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// ShortestPath returns the minimum-weight path from src to dst and its total
// weight. ok is false when dst is unreachable. The path includes both
// endpoints; a path from a node to itself is [src] with weight 0.
func (g *Graph) ShortestPath(src, dst int) (path []int, weight float64, ok bool) {
	return g.NewSearch().ShortestPath(src, dst)
}

// AllShortestFrom returns the distance from src to every node (Inf when
// unreachable).
func (g *Graph) AllShortestFrom(src int) []float64 {
	s := g.NewSearch()
	s.run(src, nil, nil, nil)
	return s.dist
}

func reconstruct(prev []int, src, dst int) []int {
	var rev []int
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Path is a node sequence with a total weight, as returned by KShortest.
type Path struct {
	Nodes  []int
	Weight float64
}

// KShortest returns up to k loopless shortest paths from src to dst in
// non-decreasing weight order (Yen's algorithm).
func (g *Graph) KShortest(src, dst, k int) []Path {
	if k <= 0 {
		return nil
	}
	s := g.NewSearch()
	first, w, ok := s.ShortestPath(src, dst)
	if !ok {
		return nil
	}
	result := []Path{{Nodes: first, Weight: w}}
	var candidates []Path
	for len(result) < k {
		lastPath := result[len(result)-1].Nodes
		for i := 0; i < len(lastPath)-1; i++ {
			spurNode := lastPath[i]
			rootPath := lastPath[:i+1]
			// Block edges that would recreate already-found paths sharing
			// this root, and block root nodes to keep paths loopless.
			blockedEdges := make(map[[2]int]bool)
			for _, p := range result {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, rootPath) {
					blockedEdges[[2]int{p.Nodes[i], p.Nodes[i+1]}] = true
				}
			}
			blockedNodes := make(map[int]bool)
			for _, n := range rootPath[:len(rootPath)-1] {
				blockedNodes[n] = true
			}
			s.run(spurNode, []int{dst}, nil, func(u, v int) bool {
				return blockedNodes[v] || blockedEdges[[2]int{u, v}]
			})
			spurPath, spurW, ok := s.path(spurNode, dst)
			if !ok {
				continue
			}
			total := append(append([]int{}, rootPath[:len(rootPath)-1]...), spurPath...)
			rootW := g.pathWeight(rootPath)
			cand := Path{Nodes: total, Weight: rootW + spurW}
			if !containsPath(candidates, cand) && !containsPath(result, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].Weight < candidates[j].Weight })
		result = append(result, candidates[0])
		candidates = candidates[1:]
	}
	return result
}

func (g *Graph) pathWeight(nodes []int) float64 {
	var w float64
	for i := 0; i+1 < len(nodes); i++ {
		best := math.Inf(1)
		for _, e := range g.adj[nodes[i]] {
			if e.To == nodes[i+1] && e.Weight < best {
				best = e.Weight
			}
		}
		w += best
	}
	return w
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, p Path) bool {
	for _, q := range ps {
		if len(q.Nodes) != len(p.Nodes) {
			continue
		}
		same := true
		for i := range q.Nodes {
			if q.Nodes[i] != p.Nodes[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// Components returns a component label per node (treating edges as
// undirected) and the number of components.
func (g *Graph) Components() (labels []int, count int) {
	n := len(g.adj)
	// Build reverse adjacency for undirected traversal.
	rev := make([][]int, n)
	for u, es := range g.adj {
		for _, e := range es {
			rev[e.To] = append(rev[e.To], u)
		}
	}
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.adj[u] {
				if labels[e.To] == -1 {
					labels[e.To] = count
					stack = append(stack, e.To)
				}
			}
			for _, v := range rev[u] {
				if labels[v] == -1 {
					labels[v] = count
					stack = append(stack, v)
				}
			}
		}
		count++
	}
	return labels, count
}

// BellmanFord computes single-source shortest distances in O(V·E); used as
// a test oracle for Dijkstra and available for graphs a caller builds with
// potential negative weights (none in iGDB proper).
func (g *Graph) BellmanFord(src int) []float64 {
	n := len(g.adj)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, e := range g.adj[u] {
				if nd := dist[u] + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
