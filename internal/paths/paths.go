// Package paths implements §4.2 of the paper: recovering the physical
// route a traceroute's packets traversed. It fuses logical measurements
// (hop IPs, RTTs) with iGDB's physical layer: bdrmap attributes hops to
// ASes, Hoiho/IXP-prefix/anchor lookups geolocate them, the hop metros are
// chained along inferred standard paths, MPLS-hidden intermediate PoPs are
// proposed via a spatial buffer join, and the route is scored against the
// shortest practical physical path (distance cost).
package paths

import (
	"fmt"
	"sort"
	"sync"

	"igdb/internal/bdrmap"
	"igdb/internal/core"
	"igdb/internal/geo"
	"igdb/internal/geoloc"
	"igdb/internal/geom"
	"igdb/internal/hoiho"
	"igdb/internal/ingest"
	"igdb/internal/iptrie"
	"igdb/internal/reldb"
	"igdb/internal/sources/rdns"
	"igdb/internal/sources/ripeatlas"
	"igdb/internal/sources/routeviews"
)

// trainingRTTMs bounds the RTT below which a hop is assumed co-located with
// the traceroute origin, for harvesting Hoiho training labels.
const trainingRTTMs = 1.0

// Pipeline holds everything needed to analyze traceroutes against an iGDB
// instance.
type Pipeline struct {
	G      *core.IGDB
	Mapper *bdrmap.Mapper
	Hoiho  *hoiho.Extractor
	// PTR maps IP → hostname from the rDNS snapshot.
	PTR map[uint32]string
	// Measurements are the visible traceroute mesh results.
	Measurements []ripeatlas.Measurement
	// AnchorCity maps anchor IPs and IDs to standard city indices.
	AnchorCity   map[uint32]int
	AnchorByID   map[int]ripeatlas.AnchorMeta
	anchorCityID map[int]int

	ixpTrie       *iptrie.Trie // IXP LAN prefix → city index
	asnMetroCache map[int]map[int]bool

	analyzeOnce  sync.Once
	analyses     []TraceAnalysis      // AnalyzeTrace of each measurement
	observations []geoloc.Observation // the same hops as geoloc observations
}

// NewPipeline loads the measurement-side snapshots and trains the learned
// components (bdrmap domain votes, Hoiho conventions).
func NewPipeline(g *core.IGDB, store ingest.Reader) (*Pipeline, error) {
	p := &Pipeline{
		G:            g,
		PTR:          make(map[uint32]string),
		AnchorCity:   make(map[uint32]int),
		AnchorByID:   make(map[int]ripeatlas.AnchorMeta),
		anchorCityID: make(map[int]int),
		ixpTrie:      iptrie.New(),
	}
	// Prefix table → LPM trie.
	rvSnap, err := store.Latest("routeviews", g.AsOf)
	if err != nil {
		return nil, err
	}
	recs, err := routeviews.Parse(rvSnap.Files["pfx2as.tsv"])
	if err != nil {
		return nil, err
	}
	p.Mapper = bdrmap.New(recs)

	// rDNS.
	rdnsSnap, err := store.Latest("rdns", g.AsOf)
	if err != nil {
		return nil, err
	}
	ptrRecs, err := rdns.Parse(rdnsSnap.Files["ptr.tsv"])
	if err != nil {
		return nil, err
	}
	p.PTR = rdns.Lookup(ptrRecs)

	// Anchors + measurements.
	raSnap, err := store.Latest("ripeatlas", g.AsOf)
	if err != nil {
		return nil, err
	}
	metas, ms, err := ripeatlas.Parse(&ripeatlas.Dump{
		AnchorsJSON:       raSnap.Files["anchors.json"],
		MeasurementsJSONL: raSnap.Files["measurements.jsonl"],
	})
	if err != nil {
		return nil, err
	}
	p.Measurements = ms
	for _, m := range metas {
		city := g.Standardize(geo.Point{Lon: m.Lon, Lat: m.Lat})
		if city < 0 {
			continue
		}
		addr, err := iptrie.ParseAddr(m.IP)
		if err != nil {
			return nil, fmt.Errorf("paths: anchor %d: %v", m.ID, err)
		}
		p.AnchorCity[addr] = city
		p.AnchorByID[m.ID] = m
		p.anchorCityID[m.ID] = city
	}

	// IXP peering LANs from the database's ixp_prefixes ⋈ ixps.
	rows := g.Rel.MustQuery(`SELECT DISTINCT p.prefix, x.metro, x.country
		FROM ixp_prefixes p JOIN ixps x ON p.ixp_name = x.ixp_name`)
	for _, r := range rows.Rows {
		pfxText, _ := r[0].AsText()
		metro, _ := r[1].AsText()
		country, _ := r[2].AsText()
		pfx, err := iptrie.ParsePrefix(pfxText)
		if err != nil {
			continue
		}
		city := g.CityByName(metro, "", country)
		if city < 0 {
			continue
		}
		p.ixpTrie.Insert(pfx, city)
	}

	// Train: bdrmap domain votes over all hops, Hoiho from near-origin and
	// near-destination hops (their metros are pinned by the anchor).
	var allIPs [][]uint32
	var examples []hoiho.Example
	for _, m := range ms {
		ips := make([]uint32, 0, len(m.Hops))
		for _, h := range m.Hops {
			addr, err := iptrie.ParseAddr(h.IP)
			if err != nil {
				continue
			}
			ips = append(ips, addr)
		}
		allIPs = append(allIPs, ips)
		srcCity, okS := p.anchorCityID[m.SrcAnchor]
		dstCity, okD := p.anchorCityID[m.DstAnchor]
		last := 0.0
		if n := len(m.Hops); n > 0 {
			last = m.Hops[n-1].RTT
		}
		for i, h := range m.Hops {
			if i >= len(ips) {
				break
			}
			host, okPTR := p.PTR[ips[i]]
			if !okPTR {
				continue
			}
			switch {
			case okS && h.RTT <= trainingRTTMs:
				examples = append(examples, hoiho.Example{Hostname: host, City: srcCity})
			case okD && last-h.RTT <= trainingRTTMs:
				examples = append(examples, hoiho.Example{Hostname: host, City: dstCity})
			}
		}
	}
	p.Mapper.LearnDomains(allIPs, p.PTR)
	p.Hoiho = hoiho.Learn(examples, g.Cities)
	return p, nil
}

// Geolocate resolves one hop IP to a standard city using, in priority
// order: anchor metadata, IXP peering LAN prefixes, Hoiho hostname
// conventions. source names the winning technique.
func (p *Pipeline) Geolocate(ip uint32) (city int, source string, ok bool) {
	return p.GeolocateWithAS(ip, -1)
}

// GeolocateWithAS is Geolocate with an optional AS attribution for the hop:
// when the hostname's city code is ambiguous (several gazetteer cities
// derive the same code), candidates where the AS declares a presence win
// over raw population order.
func (p *Pipeline) GeolocateWithAS(ip uint32, asn int) (city int, source string, ok bool) {
	return p.GeolocateHop(ip, asn, -1, 0)
}

// fiberKmPerMs is the one-way propagation speed of light in fiber.
const fiberKmPerMs = 200.0

// GeolocateHop adds measurement context to GeolocateWithAS: srcCity is the
// metro of the traceroute's origin anchor and rttMs the hop's RTT. A
// candidate metro farther from the origin than light in fiber could travel
// in rtt/2 is physically impossible and is discarded — the constraint-based
// filter that disambiguates colliding city codes (e.g. every "orl" metro
// except the one actually reachable).
func (p *Pipeline) GeolocateHop(ip uint32, asn, srcCity int, rttMs float64) (city int, source string, ok bool) {
	if c, have := p.AnchorCity[ip]; have {
		return c, "anchor", true
	}
	if c, have := p.ixpTrie.Lookup(ip); have {
		return c, "ixp", true
	}
	host, have := p.PTR[ip]
	if !have {
		return -1, "", false
	}
	cands := p.Hoiho.Candidates(host)
	if len(cands) == 0 {
		return -1, "", false
	}
	if srcCity >= 0 && rttMs > 0 {
		// Allow generous slack for queueing and route inflation.
		maxKm := rttMs/2*fiberKmPerMs + 100
		filtered := cands[:0:0]
		srcLoc := p.G.Cities[srcCity].Loc
		for _, c := range cands {
			if geo.Haversine(srcLoc, p.G.Cities[c].Loc) <= maxKm {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) > 0 {
			cands = filtered
		}
	}
	if len(cands) > 1 && asn >= 0 {
		if metros := p.asnMetros(asn); metros != nil {
			for _, c := range cands {
				if metros[c] {
					return c, "hoiho", true
				}
			}
		}
	}
	return cands[0], "hoiho", true
}

// asnMetros lazily caches the declared metro set of an AS from asn_loc.
func (p *Pipeline) asnMetros(asn int) map[int]bool {
	if p.asnMetroCache == nil {
		p.asnMetroCache = make(map[int]map[int]bool)
	}
	if m, ok := p.asnMetroCache[asn]; ok {
		return m
	}
	m := make(map[int]bool)
	rows := p.G.Rel.MustQuery(fmt.Sprintf(
		`SELECT DISTINCT metro, state_province, country FROM asn_loc WHERE asn = %d`, asn))
	for _, r := range rows.Rows {
		mm, _ := r[0].AsText()
		ss, _ := r[1].AsText()
		cc, _ := r[2].AsText()
		if idx := p.G.CityIndex(mm, ss, cc); idx >= 0 {
			m[idx] = true
		}
	}
	p.asnMetroCache[asn] = m
	return m
}

// StoreIPASNDNS analyzes the full measurement corpus and writes one row per
// distinct IP into the ip_asn_dns relation — the paper's §3.2 preparatory
// table (IP→ASN via bdrmap, IP→FQDN via rDNS, FQDN→location via Hoiho),
// which users may extend with their own mappings. Returns the row count.
func (p *Pipeline) StoreIPASNDNS() (int, error) {
	type entry struct {
		asn    int
		host   string
		city   int
		source string
	}
	seen := map[uint32]entry{}
	order := []uint32{}
	for _, ta := range p.Analyses() {
		for _, h := range ta.Hops {
			if _, have := seen[h.IP]; have {
				continue
			}
			seen[h.IP] = entry{asn: h.ASN, host: h.Hostname, city: h.City, source: h.GeoSource}
			order = append(order, h.IP)
		}
	}
	asOf := "latest"
	if !p.G.AsOf.IsZero() {
		asOf = p.G.AsOf.UTC().Format("2006-01-02")
	}
	rows := make([][]reldb.Value, 0, len(order))
	for _, ip := range order {
		e := seen[ip]
		metro, state, country := "", "", ""
		if e.city >= 0 {
			c := p.G.Cities[e.city]
			metro, state, country = c.Name, c.State, c.Country
		}
		asnVal := reldb.Null
		if e.asn >= 0 {
			asnVal = reldb.Int(int64(e.asn))
		}
		rows = append(rows, []reldb.Value{
			reldb.Text(iptrie.FormatAddr(ip)), asnVal, reldb.Text(e.host),
			reldb.Text(metro), reldb.Text(state), reldb.Text(country),
			reldb.Text(e.source), reldb.Text(asOf),
		})
	}
	if err := p.G.Rel.BulkInsert("ip_asn_dns", rows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// Hop is one analyzed traceroute hop.
type Hop struct {
	IP        uint32
	RTT       float64
	ASN       int    // bdrmap attribution, -1 unknown
	City      int    // -1 unknown
	GeoSource string // anchor | ixp | hoiho | bp | ""
	Hostname  string
}

// TraceAnalysis is the §4.2 output for one traceroute.
type TraceAnalysis struct {
	Hops    []Hop
	ASPath  []int
	CitySeq []int // geolocated metros, consecutive duplicates collapsed
}

// AnalyzeTrace runs attribution + geolocation for one measurement.
func (p *Pipeline) AnalyzeTrace(m ripeatlas.Measurement) TraceAnalysis {
	ips := make([]uint32, 0, len(m.Hops))
	rtts := make([]float64, 0, len(m.Hops))
	for _, h := range m.Hops {
		addr, err := iptrie.ParseAddr(h.IP)
		if err != nil {
			continue
		}
		ips = append(ips, addr)
		rtts = append(rtts, h.RTT)
	}
	asns := p.Mapper.MapTrace(ips, p.PTR)
	ta := TraceAnalysis{ASPath: bdrmap.ASPath(asns)}
	srcCity := -1
	if c, ok := p.anchorCityID[m.SrcAnchor]; ok {
		srcCity = c
	}
	for i, ip := range ips {
		h := Hop{IP: ip, RTT: rtts[i], ASN: asns[i], City: -1, Hostname: p.PTR[ip]}
		if c, src, ok := p.GeolocateHop(ip, asns[i], srcCity, rtts[i]); ok {
			h.City = c
			h.GeoSource = src
		}
		ta.Hops = append(ta.Hops, h)
	}
	for _, h := range ta.Hops {
		if h.City < 0 {
			continue
		}
		if len(ta.CitySeq) == 0 || ta.CitySeq[len(ta.CitySeq)-1] != h.City {
			ta.CitySeq = append(ta.CitySeq, h.City)
		}
	}
	return ta
}

// InferredRoute chains the metro sequence along inferred physical paths,
// returning the concatenated conduit geometry and its length. Metro pairs
// with no physical route contribute a great-circle segment (and its
// distance) so the total remains comparable.
func (p *Pipeline) InferredRoute(citySeq []int) (geom []geo.Point, km float64) {
	for i := 0; i+1 < len(citySeq); i++ {
		a, b := citySeq[i], citySeq[i+1]
		nodes, segKm, ok := p.G.Paths.ShortestPracticalPath(a, b)
		if !ok {
			la, lb := p.G.Cities[a].Loc, p.G.Cities[b].Loc
			km += geo.Haversine(la, lb)
			geom = appendSeg(geom, []geo.Point{la, lb})
			continue
		}
		km += segKm
		geom = appendSeg(geom, p.G.Paths.RouteGeometry(nodes))
	}
	return geom, km
}

func appendSeg(dst, seg []geo.Point) []geo.Point {
	if len(seg) == 0 {
		return dst
	}
	if len(dst) > 0 && dst[len(dst)-1] == seg[0] {
		seg = seg[1:]
	}
	return append(dst, seg...)
}

// HiddenCandidate is a PoP possibly traversed but invisible to traceroute
// (e.g. inside an MPLS tunnel).
type HiddenCandidate struct {
	City int
	ASN  int
	Km   float64 // distance from the inferred route
}

// HiddenNodeCandidates proposes MPLS-hidden intermediate nodes between two
// observed consecutive metros: cities inside a buffer around the k=2
// alternate physical routes where any of the segment's ASes has a peering
// location with physical connectivity (the paper's ArcGIS buffer + spatial
// join, Figure 7's Tulsa/Oklahoma City finding).
func (p *Pipeline) HiddenNodeCandidates(a, b int, asns []int, bufferMiles float64) []HiddenCandidate {
	if bufferMiles <= 0 {
		bufferMiles = 25
	}
	radius := bufferMiles * geo.KmPerMile
	peering := p.peeringCities(asns)
	var out []HiddenCandidate
	seen := map[[2]int]bool{}
	for _, route := range p.G.Paths.KShortestRoutes(a, b, 2) {
		line := p.G.Paths.RouteGeometry(route)
		if len(line) < 2 {
			continue
		}
		buf := geom.NewBuffer(line, radius)
		box := buf.BBox()
		for city, cityASNs := range peering {
			if city == a || city == b {
				continue
			}
			loc := p.G.Cities[city].Loc
			if !box.Contains(loc) || !buf.Contains(loc) {
				continue
			}
			// Require physical connectivity at the candidate.
			if p.G.Paths.G.Len() <= city || len(p.G.Paths.G.Neighbors(city)) == 0 {
				continue
			}
			d, _ := geom.DistanceToPolylineKm(loc, line)
			for _, asn := range cityASNs {
				key := [2]int{city, asn}
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, HiddenCandidate{City: city, ASN: asn, Km: d})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Km != out[j].Km {
			return out[i].Km < out[j].Km
		}
		return out[i].City < out[j].City
	})
	return out
}

// peeringCities returns city → subset of asns with a peering location there
// (from asn_loc).
func (p *Pipeline) peeringCities(asns []int) map[int][]int {
	out := make(map[int][]int)
	for _, asn := range asns {
		rows := p.G.Rel.MustQuery(fmt.Sprintf(
			`SELECT DISTINCT metro, state_province, country FROM asn_loc WHERE asn = %d`, asn))
		for _, r := range rows.Rows {
			m, _ := r[0].AsText()
			s, _ := r[1].AsText()
			c, _ := r[2].AsText()
			city := p.G.CityIndex(m, s, c)
			if city >= 0 {
				out[city] = append(out[city], asn)
			}
		}
	}
	return out
}

// DistanceCost compares the traceroute-derived route against the shortest
// practical physical path between the sequence's endpoints (§4.2: the
// Kansas City→Atlanta example scores 2518/1282 = 1.96).
func (p *Pipeline) DistanceCost(citySeq []int) (inferredKm, shortestKm, cost float64, ok bool) {
	if len(citySeq) < 2 {
		return 0, 0, 0, false
	}
	_, inferredKm = p.InferredRoute(citySeq)
	_, shortestKm, ok = p.G.Paths.ShortestPracticalPath(citySeq[0], citySeq[len(citySeq)-1])
	if !ok || shortestKm == 0 {
		return inferredKm, 0, 0, false
	}
	return inferredKm, shortestKm, inferredKm / shortestKm, true
}

// Analyses returns AnalyzeTrace of every loaded measurement, in
// Measurements order. The corpus is analyzed once, on first use, and every
// caller shares the result: neither the slice nor the analyses in it may
// be modified.
func (p *Pipeline) Analyses() []TraceAnalysis {
	p.analyzeOnce.Do(func() {
		p.analyses = make([]TraceAnalysis, len(p.Measurements))
		p.observations = make([]geoloc.Observation, len(p.Measurements))
		for i, m := range p.Measurements {
			ta := p.AnalyzeTrace(m)
			o := geoloc.Observation{
				IPs:  make([]uint32, len(ta.Hops)),
				RTTs: make([]float64, len(ta.Hops)),
				ASNs: make([]int, len(ta.Hops)),
			}
			for j, h := range ta.Hops {
				o.IPs[j], o.RTTs[j], o.ASNs[j] = h.IP, h.RTT, h.ASN
			}
			p.analyses[i], p.observations[i] = ta, o
		}
	})
	return p.analyses
}

// Observations returns the loaded measurements as geoloc observations with
// bdrmap AS attributions, for belief propagation (§4.4), from the one
// analysis Analyses runs. The slice and the observations' slices are
// shared by every caller and must not be modified.
func (p *Pipeline) Observations() []geoloc.Observation {
	p.Analyses()
	return p.observations
}

// KnownLocations returns every IP geolocatable without propagation, the
// seed set for §4.4. Hop AS attributions and per-measurement latency
// context sharpen ambiguous geohints.
func (p *Pipeline) KnownLocations() map[uint32]int {
	known := make(map[uint32]int)
	for _, ta := range p.Analyses() {
		for _, h := range ta.Hops {
			if h.City < 0 {
				continue
			}
			if _, have := known[h.IP]; !have {
				known[h.IP] = h.City
			}
		}
	}
	return known
}
