// Package spatial provides the spatial index behind iGDB's GIS
// operations: a k-d tree over unit-sphere coordinates for exact
// nearest-neighbour queries (the spatial join that standardizes every node
// to its closest urban area).
//
// The k-d tree stores points as 3-D unit vectors and compares chord
// distances, which are strictly monotone in great-circle distance, so
// nearest-neighbour results are exact everywhere including near the poles
// and the antimeridian.
package spatial

import (
	"container/heap"
	"math"
	"sort"

	"igdb/internal/geo"
)

// Entry associates a geographic point with a caller-defined identifier.
type Entry struct {
	P  geo.Point
	ID int
}

type vec3 struct{ x, y, z float64 }

func toVec(p geo.Point) vec3 {
	lon, lat := p.Radians()
	cl := math.Cos(lat)
	return vec3{cl * math.Cos(lon), cl * math.Sin(lon), math.Sin(lat)}
}

func (v vec3) axis(a int) float64 {
	switch a {
	case 0:
		return v.x
	case 1:
		return v.y
	default:
		return v.z
	}
}

func chord2(a, b vec3) float64 {
	dx, dy, dz := a.x-b.x, a.y-b.y, a.z-b.z
	return dx*dx + dy*dy + dz*dz
}

// chordToKm converts a unit-sphere chord length to great-circle kilometers.
func chordToKm(chord float64) float64 {
	h := chord / 2
	if h > 1 {
		h = 1
	}
	return 2 * geo.EarthRadiusKm * math.Asin(h)
}

type node struct {
	v           vec3
	entry       Entry
	axis        int
	left, right *node
}

// KDTree is an immutable nearest-neighbour index over geographic points.
type KDTree struct {
	root *node
	size int
}

// NewKDTree builds a balanced k-d tree over the entries. The input slice is
// not retained.
func NewKDTree(entries []Entry) *KDTree {
	items := make([]struct {
		v vec3
		e Entry
	}, len(entries))
	for i, e := range entries {
		items[i].v = toVec(e.P)
		items[i].e = e
	}
	t := &KDTree{size: len(entries)}
	t.root = build(items, 0)
	return t
}

func build(items []struct {
	v vec3
	e Entry
}, depth int) *node {
	if len(items) == 0 {
		return nil
	}
	axis := depth % 3
	sort.Slice(items, func(i, j int) bool { return items[i].v.axis(axis) < items[j].v.axis(axis) })
	mid := len(items) / 2
	n := &node{v: items[mid].v, entry: items[mid].e, axis: axis}
	n.left = build(items[:mid], depth+1)
	n.right = build(items[mid+1:], depth+1)
	return n
}

// Len returns the number of indexed entries.
func (t *KDTree) Len() int { return t.size }

// Nearest returns the entry closest to p and its great-circle distance in
// kilometers. ok is false for an empty tree.
func (t *KDTree) Nearest(p geo.Point) (best Entry, km float64, ok bool) {
	if t.root == nil {
		return Entry{}, 0, false
	}
	q := toVec(p)
	bestDist := math.Inf(1)
	var bestEntry Entry
	var search func(n *node)
	search = func(n *node) {
		if n == nil {
			return
		}
		if d := chord2(q, n.v); d < bestDist {
			bestDist = d
			bestEntry = n.entry
		}
		delta := q.axis(n.axis) - n.v.axis(n.axis)
		near, far := n.left, n.right
		if delta > 0 {
			near, far = far, near
		}
		search(near)
		if delta*delta < bestDist {
			search(far)
		}
	}
	search(t.root)
	return bestEntry, chordToKm(math.Sqrt(bestDist)), true
}

// Result pairs an entry with its distance from the query point.
type Result struct {
	Entry Entry
	Km    float64
}

// resultHeap is a max-heap on chord² so the current worst of the best-k is
// at the top.
type resultHeap []struct {
	d2 float64
	e  Entry
}

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].d2 > h[j].d2 }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) {
	*h = append(*h, x.(struct {
		d2 float64
		e  Entry
	}))
}
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// KNearest returns up to k entries closest to p, ordered nearest first.
func (t *KDTree) KNearest(p geo.Point, k int) []Result {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := toVec(p)
	h := &resultHeap{}
	var search func(n *node)
	search = func(n *node) {
		if n == nil {
			return
		}
		d := chord2(q, n.v)
		if h.Len() < k {
			heap.Push(h, struct {
				d2 float64
				e  Entry
			}{d, n.entry})
		} else if d < (*h)[0].d2 {
			(*h)[0] = struct {
				d2 float64
				e  Entry
			}{d, n.entry}
			heap.Fix(h, 0)
		}
		delta := q.axis(n.axis) - n.v.axis(n.axis)
		near, far := n.left, n.right
		if delta > 0 {
			near, far = far, near
		}
		search(near)
		if h.Len() < k || delta*delta < (*h)[0].d2 {
			search(far)
		}
	}
	search(t.root)
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		item := heap.Pop(h).(struct {
			d2 float64
			e  Entry
		})
		out[i] = Result{Entry: item.e, Km: chordToKm(math.Sqrt(item.d2))}
	}
	return out
}
