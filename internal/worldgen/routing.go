package worldgen

import (
	"math/rand"

	"igdb/internal/geo"
	"igdb/internal/graph"
)

// fiberKmPerMs is the propagation speed of light in fiber (~2/3 c),
// expressed as kilometers per millisecond of one-way delay.
const fiberKmPerMs = 200.0

// routeInflation approximates how much longer fiber routes are than the
// great circle (rights-of-way are not straight lines).
const routeInflation = 1.25

// asChangePenaltyKm biases routing toward staying inside one network,
// mimicking hot-potato economics.
const asChangePenaltyKm = 400.0

// routingNode is one (ISP, city) PoP in the forwarding graph.
type routingNode struct {
	isp  int // ISP index
	city int
}

// routingGraph is the (AS, city)-level forwarding fabric used to synthesize
// traceroutes.
type routingGraph struct {
	g      *graph.Graph
	nodes  []routingNode
	nodeID map[routingNode]int
	w      *World
}

func (w *World) buildRoutingGraph() *routingGraph {
	rg := &routingGraph{
		g:      graph.New(0),
		nodeID: make(map[routingNode]int),
		w:      w,
	}
	node := func(isp, city int) int {
		key := routingNode{isp, city}
		if id, ok := rg.nodeID[key]; ok {
			return id
		}
		id := rg.g.AddNode()
		rg.nodeID[key] = id
		rg.nodes = append(rg.nodes, key)
		return id
	}
	// Intra-ISP backbone links.
	for i := range w.ISPs {
		isp := &w.ISPs[i]
		for _, l := range isp.Links {
			a := node(i, l[0])
			b := node(i, l[1])
			d := geo.Haversine(w.Cities[l[0]].Loc, w.Cities[l[1]].Loc) * routeInflation
			if d <= 0 {
				d = 1
			}
			rg.g.AddUndirected(a, b, d)
		}
		// Single-PoP ISPs still need their node present.
		for _, p := range isp.POPs {
			node(i, p)
		}
	}
	// Inter-AS edges where two linked ASes share a metro.
	linked := make(map[[2]int]bool, len(w.ASLinks))
	for _, l := range w.ASLinks {
		linked[[2]int{min(l.A, l.B), max(l.A, l.B)}] = true
	}
	byCity := make(map[int][]int) // city -> ISP ids
	for i := range w.ISPs {
		for _, p := range w.ISPs[i].POPs {
			byCity[p] = append(byCity[p], i)
		}
	}
	for city, isps := range byCity {
		for i := 0; i < len(isps); i++ {
			for j := i + 1; j < len(isps); j++ {
				a, b := w.ISPs[isps[i]].ASN, w.ISPs[isps[j]].ASN
				if !linked[[2]int{min(a, b), max(a, b)}] {
					continue
				}
				rg.g.AddUndirected(node(isps[i], city), node(isps[j], city), asChangePenaltyKm)
			}
		}
	}
	// Backhaul: an AS link whose endpoints share no metro still carries
	// traffic — the customer leases a circuit to the provider's nearest
	// PoP. One edge between the closest PoP pair keeps the fabric connected.
	for _, l := range w.ASLinks {
		asA, asB := w.ASByNumber(l.A), w.ASByNumber(l.B)
		if asA == nil || asB == nil || asA.ISP < 0 || asB.ISP < 0 {
			continue
		}
		ispA, ispB := &w.ISPs[asA.ISP], &w.ISPs[asB.ISP]
		shared := false
		pops := make(map[int]bool, len(ispA.POPs))
		for _, p := range ispA.POPs {
			pops[p] = true
		}
		for _, p := range ispB.POPs {
			if pops[p] {
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		bestA, bestB, bestD := -1, -1, -1.0
		for _, pa := range ispA.POPs {
			for _, pb := range ispB.POPs {
				d := geo.Haversine(w.Cities[pa].Loc, w.Cities[pb].Loc)
				if bestD < 0 || d < bestD {
					bestA, bestB, bestD = pa, pb, d
				}
			}
		}
		if bestA >= 0 {
			rg.g.AddUndirected(node(asA.ISP, bestA), node(asB.ISP, bestB),
				bestD*routeInflation+asChangePenaltyKm)
		}
	}
	// Physically-present IXP members peer with each other at the exchange
	// metro regardless of the declarative AS-link table (public peering).
	peered := make(map[[2]int]bool)
	for _, ix := range w.IXPs {
		var local []int // ISP ids physically at the exchange
		for _, m := range ix.Members {
			if m.Remote {
				continue
			}
			as := w.ASByNumber(m.ASN)
			if as != nil && as.ISP >= 0 && w.containsPOP(&w.ISPs[as.ISP], ix.City) {
				local = append(local, as.ISP)
			}
		}
		for i := 0; i < len(local); i++ {
			for j := i + 1; j < len(local); j++ {
				a := node(local[i], ix.City)
				b := node(local[j], ix.City)
				k := [2]int{min(a, b), max(a, b)}
				if peered[k] {
					continue
				}
				peered[k] = true
				rg.g.AddUndirected(a, b, asChangePenaltyKm)
			}
		}
	}
	return rg
}

// router is one goroutine's reusable routing state: a search over the
// routing graph, and the great-circle km from each city to the current
// query's destination (-1 until first needed), which A* asks for every time
// it pushes any PoP in that city.
type router struct {
	s *graph.Search
	h []float64
}

func (rg *routingGraph) newRouter() *router {
	return &router{s: rg.g.NewSearch(), h: make([]float64, len(rg.w.Cities))}
}

// route computes the PoP-level forwarding path between two (ISP, city)
// endpoints, returning the node sequence. It reads only the frozen graph
// and w.Cities, so routers on different goroutines can run it at once.
func (rg *routingGraph) route(rt *router, srcISP, srcCity, dstISP, dstCity int) []routingNode {
	src, ok1 := rg.nodeID[routingNode{srcISP, srcCity}]
	dst, ok2 := rg.nodeID[routingNode{dstISP, dstCity}]
	if !ok1 || !ok2 {
		return nil
	}
	dstLoc := rg.w.Cities[dstCity].Loc
	for i := range rt.h {
		rt.h[i] = -1
	}
	h := func(n int) float64 {
		c := rg.nodes[n].city
		if rt.h[c] < 0 {
			rt.h[c] = geo.Haversine(rg.w.Cities[c].Loc, dstLoc)
		}
		return rt.h[c]
	}
	path, _, ok := rt.s.ShortestPathWithHeuristic(src, dst, h)
	if !ok {
		return nil
	}
	out := make([]routingNode, len(path))
	for i, id := range path {
		out[i] = rg.nodes[id]
	}
	return out
}

// anchorRoute routes between two anchors' PoPs: nil when either anchor's AS
// runs no ISP or no path joins them.
func (w *World) anchorRoute(rg *routingGraph, rt *router, srcA, dstA int) []routingNode {
	src, dst := w.Anchors[srcA], w.Anchors[dstA]
	srcISP := w.ASByNumber(src.ASN).ISP
	dstISP := w.ASByNumber(dst.ASN).ISP
	if srcISP < 0 || dstISP < 0 {
		return nil
	}
	return rg.route(rt, srcISP, src.City, dstISP, dst.City)
}

// genTraceroutes samples anchor pairs and synthesizes their traceroute
// measurements, including MPLS-hidden interior hops and missing PTR
// records.
func (w *World) genTraceroutes(r *rand.Rand) {
	rg := w.buildRoutingGraph()

	// The guaranteed first anchors (KC, Atlanta, Madrid, Berlin) get the
	// paper's two reference traceroutes as constructed ground truth; the
	// rest of the mesh is sampled and emergent.
	w.buildReferenceTraces(r)

	type pair struct{ src, dst int }
	var pairs []pair
	for len(pairs) < w.Cfg.TraceroutePairs {
		s := r.Intn(len(w.Anchors))
		d := r.Intn(len(w.Anchors))
		if s != d {
			pairs = append(pairs, pair{s, d})
		}
	}
	// Routing draws nothing from r, so every pair's route is computed first,
	// across all cores; synthesis then draws from r in pair order, and the
	// world is the same at any GOMAXPROCS.
	paths := make([][]routingNode, len(pairs))
	graph.Parallel(len(pairs), rg.newRouter, func(rt *router, i int) {
		paths[i] = w.anchorRoute(rg, rt, pairs[i].src, pairs[i].dst)
	})
	for i, p := range pairs {
		if tr, ok := w.synthesizeTrace(r, paths[i], p.src, p.dst); ok {
			w.Traces = append(w.Traces, tr)
		}
	}
}

// synthesizeTrace turns a routed PoP path between two anchors into a
// traceroute. An empty path yields no trace and draws nothing from r.
func (w *World) synthesizeTrace(r *rand.Rand, path []routingNode, srcA, dstA int) (Traceroute, bool) {
	if len(path) == 0 {
		return Traceroute{}, false
	}
	src := w.Anchors[srcA]
	dst := w.Anchors[dstA]
	tr := Traceroute{SrcAnchor: srcA, DstAnchor: dstA}

	// Decide per-AS-segment whether MPLS hides the interior.
	hideSegment := make(map[int]bool)
	for _, n := range path {
		isp := &w.ISPs[n.isp]
		if isp.MPLS {
			if _, seen := hideSegment[n.isp]; !seen {
				hideSegment[n.isp] = r.Float64() < w.Cfg.MPLSHiddenFraction
			}
		}
	}

	cum := 0.0
	var prevLoc geo.Point = w.Cities[src.City].Loc
	for i, n := range path {
		loc := w.Cities[n.city].Loc
		cum += geo.Haversine(prevLoc, loc) * routeInflation
		prevLoc = loc
		isp := &w.ISPs[n.isp]
		as := w.ASByNumber(isp.ASN)
		rt := w.ensureRouter(r, as, isp, n.city)

		hidden := false
		if hideSegment[n.isp] {
			// Interior hop of a hidden MPLS segment: not first or last node
			// of this AS's contiguous run.
			interior := i > 0 && i < len(path)-1 &&
				path[i-1].isp == n.isp && path[i+1].isp == n.isp
			hidden = interior
		}
		// At AS boundaries the ingress interface is often numbered from the
		// neighbour's address space (the §3.3 IP-to-AS pitfall), or — when
		// the handoff happens at an exchange — from the IXP peering LAN
		// (whose prefix is never announced, so LPM finds nothing: the
		// signature traIXroute exploits).
		ip := rt.IP
		if i > 0 && path[i-1].isp != n.isp {
			if lanIP, ok := w.ixpMemberIP(n.city, isp.ASN); ok && r.Float64() < 0.4 {
				ip = lanIP
			} else if r.Float64() < 0.3 {
				if borrowed := w.borrowedBorderIP(w.ISPs[path[i-1].isp].ASN, rt.ID); borrowed != 0 {
					ip = borrowed
				}
			}
		}
		rtt := 2*cum/fiberKmPerMs + 0.1*float64(i) + r.Float64()*0.4
		tr.Hops = append(tr.Hops, Hop{
			IP:       ip,
			RTTms:    rtt,
			ASN:      isp.ASN,
			City:     n.city,
			Hidden:   hidden,
			Hostname: rt.Hostname,
		})
	}
	// Metro-internal extra hops at the ends (the paper's Madrid/Berlin
	// traceroute shows four hops inside each anchor metro).
	tr.Hops = w.addMetroHops(r, tr.Hops, src, dst)
	return tr, true
}

// addMetroHops prepends/appends intra-metro hops inside the source and
// destination networks.
func (w *World) addMetroHops(r *rand.Rand, hops []Hop, src, dst Anchor) []Hop {
	if len(hops) == 0 {
		return hops
	}
	n := 1 + r.Intn(3)
	var pre []Hop
	for i := 0; i < n; i++ {
		ip := w.anchorMetroIP(src.ID, src.ASN, i)
		if ip == 0 {
			break
		}
		pre = append(pre, Hop{
			IP:    ip,
			RTTms: 0.2 + float64(i)*0.15 + r.Float64()*0.3,
			ASN:   src.ASN,
			City:  src.City,
		})
	}
	base := hops[len(hops)-1].RTTms
	m := 1 + r.Intn(3)
	var post []Hop
	for i := 0; i < m; i++ {
		ip := w.anchorMetroIP(dst.ID, dst.ASN, i)
		if ip == 0 {
			break
		}
		post = append(post, Hop{
			IP:    ip,
			RTTms: base + 0.2 + float64(i)*0.15 + r.Float64()*0.3,
			ASN:   dst.ASN,
			City:  dst.City,
		})
	}
	out := append(pre, hops...)
	return append(out, post...)
}

// waypoint is one step of a constructed reference traceroute.
type waypoint struct {
	asn    int
	city   string
	hidden bool
}

// buildReferenceTraces constructs the two traceroutes the paper analyzes in
// §4.2 and §4.5 as ground truth: Kansas City→Atlanta through Cogent with
// the Tulsa hop hidden by MPLS, and Madrid→Berlin through UltraDNS →
// Limelight → IPB.
func (w *World) buildReferenceTraces(r *rand.Rand) {
	if len(w.Anchors) < 4 {
		return
	}
	kcAtlanta := []waypoint{
		{64199, "Kansas City", false},
		{12186, "Kansas City", false},
		{174, "Kansas City", false},
		{174, "Tulsa", true}, // MPLS interior, hidden from traceroute
		{174, "Dallas", false},
		{174, "Houston", false},
		{174, "Atlanta", false},
		{20473, "Atlanta", false},
	}
	madridBerlin := []waypoint{
		{12008, "Madrid", false},
		{22822, "Madrid", false},
		{22822, "Paris", false},
		{22822, "Frankfurt", false},
		{22822, "Duesseldorf", false},
		{22822, "Berlin", false},
		{20647, "Berlin", false},
	}
	if tr, ok := w.buildForcedTrace(r, 0, 1, kcAtlanta); ok {
		w.Traces = append(w.Traces, tr)
	}
	if tr, ok := w.buildForcedTrace(r, 2, 3, madridBerlin); ok {
		w.Traces = append(w.Traces, tr)
	}
	// Table 3 scenario: traffic transits Cogent through each of its
	// undeclared PoPs at least once, so rDNS can reveal them.
	for _, cityName := range table3Cities {
		cityID := w.CityID(cityName)
		if cityID < 0 {
			continue
		}
		srcA := w.nearestAnchor(cityID, -1)
		dstA := w.nearestAnchor(cityID, srcA)
		if srcA < 0 || dstA < 0 {
			continue
		}
		wps := []waypoint{
			{w.Anchors[srcA].ASN, w.Cities[w.Anchors[srcA].City].Name, false},
			{174, cityName, false},
			{w.Anchors[dstA].ASN, w.Cities[w.Anchors[dstA].City].Name, false},
		}
		if tr, ok := w.buildForcedTrace(r, srcA, dstA, wps); ok {
			w.Traces = append(w.Traces, tr)
		}
	}
}

// ixpMemberIP returns the peering-LAN address of the AS at an exchange in
// the given city, if it is a physically present member there.
func (w *World) ixpMemberIP(city, asn int) (uint32, bool) {
	if w.ixpIPByKey == nil {
		w.ixpIPByKey = make(map[[2]int]uint32)
		for _, ix := range w.IXPs {
			for _, m := range ix.Members {
				if m.Remote {
					continue
				}
				key := [2]int{ix.City, m.ASN}
				if _, dup := w.ixpIPByKey[key]; !dup {
					w.ixpIPByKey[key] = m.IP
				}
			}
		}
	}
	ip, ok := w.ixpIPByKey[[2]int{city, asn}]
	return ip, ok
}

// nearestAnchor returns the anchor closest to the city, excluding one index.
func (w *World) nearestAnchor(cityID, exclude int) int {
	best, bestD := -1, -1.0
	for i, a := range w.Anchors {
		if i == exclude {
			continue
		}
		d := geo.Haversine(w.Cities[cityID].Loc, w.Cities[a.City].Loc)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func (w *World) buildForcedTrace(r *rand.Rand, srcA, dstA int, wps []waypoint) (Traceroute, bool) {
	tr := Traceroute{SrcAnchor: srcA, DstAnchor: dstA}
	cum := 0.0
	var prevLoc geo.Point
	for i, wp := range wps {
		cityID := w.CityID(wp.city)
		as := w.ASByNumber(wp.asn)
		if cityID < 0 || as == nil || as.ISP < 0 {
			return Traceroute{}, false
		}
		isp := &w.ISPs[as.ISP]
		loc := w.Cities[cityID].Loc
		if i > 0 {
			cum += geo.Haversine(prevLoc, loc) * routeInflation
		}
		prevLoc = loc
		rt := w.ensureRouter(r, as, isp, cityID)
		tr.Hops = append(tr.Hops, Hop{
			IP:       rt.IP,
			RTTms:    2*cum/fiberKmPerMs + 0.1*float64(i) + r.Float64()*0.3,
			ASN:      wp.asn,
			City:     cityID,
			Hidden:   wp.hidden,
			Hostname: rt.Hostname,
		})
	}
	tr.Hops = w.addMetroHops(r, tr.Hops, w.Anchors[srcA], w.Anchors[dstA])
	return tr, true
}

// VisibleHops returns the hops a measurement consumer would see (MPLS
// interior hops removed).
func (t Traceroute) VisibleHops() []Hop {
	out := make([]Hop, 0, len(t.Hops))
	for _, h := range t.Hops {
		if !h.Hidden {
			out = append(out, h)
		}
	}
	return out
}

// FindTrace returns the first traceroute between anchors in the two named
// cities, or nil.
func (w *World) FindTrace(srcCity, dstCity string) *Traceroute {
	sc, dc := w.CityID(srcCity), w.CityID(dstCity)
	for i := range w.Traces {
		tr := &w.Traces[i]
		if w.Anchors[tr.SrcAnchor].City == sc && w.Anchors[tr.DstAnchor].City == dc {
			return tr
		}
	}
	return nil
}
