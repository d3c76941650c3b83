package core

import (
	"sort"

	"igdb/internal/geo"
	"igdb/internal/graph"
	"igdb/internal/ingest"
	"igdb/internal/reldb"
	"igdb/internal/sources/naturalearth"
	"igdb/internal/wkt"
)

// RowNetwork is the transportation right-of-way graph: one node per
// standard city, one edge per road/rail segment with its real geometry.
// iGDB routes every Internet-Atlas adjacency along this network to
// approximate the conduit path (§3.1, after Durairajan et al.'s
// rights-of-way observation).
type RowNetwork struct {
	G     *graph.Graph
	geoms map[[2]int][]geo.Point // normalized city pair -> geometry A→B
}

// edgeKey normalizes an undirected city pair.
func edgeKey(a, b int) [2]int {
	if a > b {
		return [2]int{b, a}
	}
	return [2]int{a, b}
}

// Geometry returns the stored geometry for the edge a-b oriented from a to
// b, and whether the edge exists.
func (rn *RowNetwork) Geometry(a, b int) ([]geo.Point, bool) {
	g, ok := rn.geoms[edgeKey(a, b)]
	if !ok {
		return nil, false
	}
	if a > b {
		// Stored low→high; reverse for the requested direction.
		rev := make([]geo.Point, len(g))
		for i, p := range g {
			rev[len(g)-1-i] = p
		}
		return rev, true
	}
	return g, true
}

func (rn *RowNetwork) concat(nodes []int) []geo.Point {
	var out []geo.Point
	for i := 1; i < len(nodes); i++ {
		seg, ok := rn.Geometry(nodes[i-1], nodes[i])
		if !ok {
			continue
		}
		if len(out) > 0 {
			seg = seg[1:] // avoid duplicating the shared vertex
		}
		out = append(out, seg...)
	}
	return out
}

// loadRightOfWay builds the RowNetwork from the Natural Earth road/rail
// layers: each segment endpoint snaps to its standard city.
func (g *IGDB) loadRightOfWay(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("naturalearth", opts.AsOf)
	if err != nil {
		return err
	}
	_, roads, err := naturalearth.Parse(&naturalearth.Dataset{
		PlacesCSV: snap.Files["places.csv"],
		RoadsCSV:  snap.Files["roads.csv"],
	})
	if err != nil {
		return err
	}
	sp := g.span.Start("right_of_way")
	defer endStage(sp)
	rn := &RowNetwork{
		G:     graph.New(len(g.Cities)),
		geoms: make(map[[2]int][]geo.Point),
	}
	for _, rd := range roads {
		if len(rd.Path) < 2 {
			continue
		}
		a := g.Standardize(rd.Path[0])
		b := g.Standardize(rd.Path[len(rd.Path)-1])
		if a < 0 || b < 0 || a == b {
			continue
		}
		key := edgeKey(a, b)
		if _, dup := rn.geoms[key]; dup {
			continue
		}
		geom := rd.Path
		if a > b {
			geom = make([]geo.Point, len(rd.Path))
			for i, p := range rd.Path {
				geom[len(rd.Path)-1-i] = p
			}
		}
		rn.geoms[key] = geom
		w := rd.LengthKm
		if w <= 0 {
			w = geo.PathLengthKm(rd.Path)
		}
		rn.G.AddUndirected(a, b, w)
	}
	sp.SetAttr("edges", len(rn.geoms))
	g.Row = rn
	return nil
}

// inferStandardPaths routes every unique Atlas adjacency along the
// right-of-way network and stores the result in std_paths. Pairs are
// grouped by source city so one Dijkstra serves all pairs from that city;
// the sources are spread over every core, each writing its own slot, and
// the rows are stored in source order whatever the core count.
func (g *IGDB) inferStandardPaths() error {
	if g.Row == nil {
		// Degraded build with the right-of-way layer quarantined: no
		// network to route along, so no standard paths.
		return nil
	}
	bySrc := make(map[int][]int)
	for _, pair := range g.pendingAdjacencies {
		bySrc[pair[0]] = append(bySrc[pair[0]], pair[1])
	}
	srcs := make([]int, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)

	asOf := asOfText(g.AsOf)
	if g.AsOf.IsZero() {
		asOf = "latest"
	}
	slots := make([][][]reldb.Value, len(srcs))
	graph.Parallel(len(srcs), g.Row.G.NewSearch, func(s *graph.Search, i int) {
		src := srcs[i]
		dsts := bySrc[src]
		for j, p := range s.ShortestPaths(src, dsts) {
			if p.Nodes == nil {
				continue // disconnected (e.g. across an ocean): no land path
			}
			geom := g.Row.concat(p.Nodes)
			if len(geom) < 2 {
				continue
			}
			a, b := g.Cities[src], g.Cities[dsts[j]]
			slots[i] = append(slots[i], []reldb.Value{
				reldb.Text(a.Name), reldb.Text(a.State), reldb.Text(a.Country),
				reldb.Text(b.Name), reldb.Text(b.State), reldb.Text(b.Country),
				reldb.Float(p.Weight),
				reldb.Text(wkt.Marshal(wkt.NewLineString(geom))),
				reldb.Text(asOf),
			})
		}
	})
	var rows [][]reldb.Value
	for _, s := range slots {
		rows = append(rows, s...)
	}
	return g.Rel.BulkInsert("std_paths", rows)
}

// PathNetwork is the graph of inferred physical paths: nodes are cities,
// edges are std_paths weighted by conduit length. The §4.2 "shortest
// practical physical path" is a shortest path on this network.
type PathNetwork struct {
	G     *graph.Graph
	geoms map[[2]int][]geo.Point
}

// buildPathNetwork assembles the network from the std_paths relation.
func (g *IGDB) buildPathNetwork() *PathNetwork {
	pn := &PathNetwork{
		G:     graph.New(len(g.Cities)),
		geoms: make(map[[2]int][]geo.Point),
	}
	rows := g.Rel.MustQuery(`SELECT from_metro, from_state, from_country,
		to_metro, to_state, to_country, distance_km, path_wkt FROM std_paths`)
	for _, r := range rows.Rows {
		fm, _ := r[0].AsText()
		fs, _ := r[1].AsText()
		fc, _ := r[2].AsText()
		tm, _ := r[3].AsText()
		ts, _ := r[4].AsText()
		tc, _ := r[5].AsText()
		km, _ := r[6].AsFloat()
		pathWKT, _ := r[7].AsText()
		a := g.CityIndex(fm, fs, fc)
		b := g.CityIndex(tm, ts, tc)
		if a < 0 || b < 0 || a == b {
			continue
		}
		key := edgeKey(a, b)
		if _, dup := pn.geoms[key]; dup {
			continue
		}
		geom, err := wkt.Parse(pathWKT)
		if err != nil || geom.Kind != wkt.KindLineString {
			continue
		}
		line := geom.Line
		if a > b {
			rev := make([]geo.Point, len(line))
			for i, p := range line {
				rev[len(line)-1-i] = p
			}
			line = rev
		}
		pn.geoms[key] = line
		pn.G.AddUndirected(a, b, km)
	}
	return pn
}

// Geometry returns the stored conduit geometry for edge a-b, oriented a→b.
func (pn *PathNetwork) Geometry(a, b int) ([]geo.Point, bool) {
	gm, ok := pn.geoms[edgeKey(a, b)]
	if !ok {
		return nil, false
	}
	if a > b {
		rev := make([]geo.Point, len(gm))
		for i, p := range gm {
			rev[len(gm)-1-i] = p
		}
		return rev, true
	}
	return gm, true
}

// HasEdge reports whether an inferred physical path connects a and b
// directly.
func (pn *PathNetwork) HasEdge(a, b int) bool {
	_, ok := pn.geoms[edgeKey(a, b)]
	return ok
}

// ShortestPracticalPath returns the geographically shortest route along
// inferred physical paths between two cities: the §4.2 baseline against
// which traceroute-derived paths are scored.
func (pn *PathNetwork) ShortestPracticalPath(a, b int) (cities []int, km float64, ok bool) {
	return pn.G.ShortestPath(a, b)
}

// RouteGeometry concatenates edge geometries along a city sequence.
func (pn *PathNetwork) RouteGeometry(cities []int) []geo.Point {
	var out []geo.Point
	for i := 1; i < len(cities); i++ {
		seg, ok := pn.Geometry(cities[i-1], cities[i])
		if !ok {
			continue
		}
		if len(out) > 0 {
			seg = seg[1:]
		}
		out = append(out, seg...)
	}
	return out
}

// KShortestRoutes returns up to k alternate city sequences between a and b
// along inferred paths (used by the hidden-node inference to consider
// parallel corridors like Tulsa vs Oklahoma City).
func (pn *PathNetwork) KShortestRoutes(a, b, k int) [][]int {
	var out [][]int
	for _, p := range pn.G.KShortest(a, b, k) {
		out = append(out, p.Nodes)
	}
	return out
}
