// Package voronoi constructs the Thiessen-polygon tessellation at the heart
// of iGDB's location standardization (§3.1 of the paper): the Earth is
// divided into one polygon per urban area such that every point inside a
// polygon is closer to that polygon's city than to any other.
//
// Cells are computed exactly in the plate-carrée plane (lon/lat treated as
// planar, the same convention the polygons are stored and rendered in) by
// clipping a bounding rectangle with perpendicular-bisector half-planes.
// The incremental k-nearest strategy stops once no remaining site can cut
// the cell, so the result equals the full O(n²) construction.
package voronoi

import (
	"math"
	"sort"

	"igdb/internal/geo"
	"igdb/internal/geom"
)

// Diagram is a Voronoi tessellation of a set of sites.
type Diagram struct {
	Sites []geo.Point
	// Cells[i] is the closed polygon ring (first point repeated at the end)
	// of site i, nil for duplicate sites that lost their cell.
	Cells  [][]geo.Point
	bounds geo.BBox
}

// WorldBounds is the default clipping rectangle covering the whole Earth in
// plate-carrée coordinates.
var WorldBounds = geo.BBox{MinLon: -180, MinLat: -90, MaxLon: 180, MaxLat: 90}

// Build computes the Voronoi diagram of sites clipped to bounds.
func Build(sites []geo.Point, bounds geo.BBox) *Diagram {
	d := &Diagram{
		Sites:  append([]geo.Point(nil), sites...),
		Cells:  make([][]geo.Point, len(sites)),
		bounds: bounds,
	}
	if len(sites) == 0 {
		return d
	}
	idx := newKD2(sites)
	boundRing := []geom.XY{
		{X: bounds.MinLon, Y: bounds.MinLat},
		{X: bounds.MaxLon, Y: bounds.MinLat},
		{X: bounds.MaxLon, Y: bounds.MaxLat},
		{X: bounds.MinLon, Y: bounds.MaxLat},
	}
	dup := findDuplicates(sites)
	for i, s := range sites {
		if dup[i] {
			continue
		}
		d.Cells[i] = closeRing(cellFor(s, i, idx, boundRing))
	}
	return d
}

// findDuplicates marks every site after the first at identical coordinates.
func findDuplicates(sites []geo.Point) []bool {
	seen := make(map[geo.Point]bool, len(sites))
	dup := make([]bool, len(sites))
	for i, s := range sites {
		if seen[s] {
			dup[i] = true
		}
		seen[s] = true
	}
	return dup
}

func cellFor(site geo.Point, selfID int, idx *kd2, boundRing []geom.XY) []geom.XY {
	cell := boundRing
	p := geom.XY{X: site.Lon, Y: site.Lat}
	// Stream neighbours in increasing planar distance. A site at distance d
	// can only clip the cell if d/2 < R, the max distance from our site to
	// any current cell vertex; once d > 2R we are done.
	const batch = 16
	k := batch
	processed := 0
	for {
		neigh := idx.kNearest(p, k+1) // +1: includes self
		madeProgress := false
		for _, nb := range neigh[processed:] {
			if nb.id == selfID {
				processed++
				continue
			}
			r := maxVertexDist(p, cell)
			if nb.dist > 2*r {
				return cell
			}
			q := geom.XY{X: idx.pts[nb.id].X, Y: idx.pts[nb.id].Y}
			if q == p {
				processed++
				continue // exact duplicate handled by caller
			}
			cell = geom.ClipRingHalfPlane(cell, geom.Bisector(p, q))
			if len(cell) == 0 {
				return nil
			}
			processed++
			madeProgress = true
		}
		if len(neigh) < k+1 {
			// Exhausted all sites.
			return cell
		}
		if !madeProgress && processed >= len(neigh) {
			return cell
		}
		k *= 2
	}
}

func maxVertexDist(p geom.XY, ring []geom.XY) float64 {
	var worst float64
	for _, v := range ring {
		d := math.Hypot(v.X-p.X, v.Y-p.Y)
		if d > worst {
			worst = d
		}
	}
	return worst
}

func closeRing(ring []geom.XY) []geo.Point {
	if len(ring) == 0 {
		return nil
	}
	out := make([]geo.Point, 0, len(ring)+1)
	for _, v := range ring {
		out = append(out, geo.Point{Lon: v.X, Lat: v.Y})
	}
	out = append(out, out[0])
	return out
}

// CellArea returns the planar (degree²) area of cell i, 0 when absent.
func (d *Diagram) CellArea(i int) float64 {
	c := d.Cells[i]
	if len(c) < 4 {
		return 0
	}
	ring := make([]geom.XY, len(c)-1)
	for j := 0; j < len(c)-1; j++ {
		ring[j] = geom.XY{X: c[j].Lon, Y: c[j].Lat}
	}
	return math.Abs(geom.SignedArea(ring))
}

// TotalArea sums all cell areas; for a full tessellation it equals the area
// of the bounding rectangle.
func (d *Diagram) TotalArea() float64 {
	var sum float64
	for i := range d.Cells {
		sum += d.CellArea(i)
	}
	return sum
}

// kd2 is a small planar k-d tree used to stream nearest sites.
type kd2 struct {
	pts      []geom.XY
	rootNode *kdNode
}

func newKD2(sites []geo.Point) *kd2 {
	t := &kd2{pts: make([]geom.XY, len(sites))}
	order := make([]int, len(sites))
	for i, s := range sites {
		t.pts[i] = geom.XY{X: s.Lon, Y: s.Lat}
		order[i] = i
	}
	t.rootNode = t.buildRec(order, 0)
	return t
}

type kdNode struct {
	idx         int
	axis        int
	left, right *kdNode
}

func (t *kd2) buildRec(order []int, depth int) *kdNode {
	if len(order) == 0 {
		return nil
	}
	axis := depth % 2
	sort.Slice(order, func(i, j int) bool {
		a, b := t.pts[order[i]], t.pts[order[j]]
		if axis == 0 {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	mid := len(order) / 2
	n := &kdNode{idx: order[mid], axis: axis}
	left := append([]int(nil), order[:mid]...)
	right := append([]int(nil), order[mid+1:]...)
	n.left = t.buildRec(left, depth+1)
	n.right = t.buildRec(right, depth+1)
	return n
}

type neighbor struct {
	id   int
	dist float64
}

// kNearest returns the k nearest sites to p in increasing distance.
func (t *kd2) kNearest(p geom.XY, k int) []neighbor {
	if t.rootNode == nil || k <= 0 {
		return nil
	}
	// Max-heap of current best k, implemented on a slice.
	var best []neighbor
	worse := func(i, j int) bool { return best[i].dist > best[j].dist }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			largest := i
			if l < len(best) && worse(l, largest) {
				largest = l
			}
			if r < len(best) && worse(r, largest) {
				largest = r
			}
			if largest == i {
				return
			}
			best[i], best[largest] = best[largest], best[i]
			i = largest
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(i, parent) {
				return
			}
			best[i], best[parent] = best[parent], best[i]
			i = parent
		}
	}
	var search func(n *kdNode)
	search = func(n *kdNode) {
		if n == nil {
			return
		}
		q := t.pts[n.idx]
		d := math.Hypot(q.X-p.X, q.Y-p.Y)
		if len(best) < k {
			best = append(best, neighbor{n.idx, d})
			siftUp(len(best) - 1)
		} else if d < best[0].dist {
			best[0] = neighbor{n.idx, d}
			siftDown(0)
		}
		var delta float64
		if n.axis == 0 {
			delta = p.X - q.X
		} else {
			delta = p.Y - q.Y
		}
		near, far := n.left, n.right
		if delta > 0 {
			near, far = far, near
		}
		search(near)
		if len(best) < k || math.Abs(delta) < best[0].dist {
			search(far)
		}
	}
	search(t.rootNode)
	sort.Slice(best, func(i, j int) bool { return best[i].dist < best[j].dist })
	return best
}
