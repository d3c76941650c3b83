package worldgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"igdb/internal/geo"
	"igdb/internal/iptrie"
)

// prefixAllocator hands out non-overlapping IPv4 blocks.
type prefixAllocator struct {
	next19 uint32 // counter of /19 blocks for AS space
	next24 uint32 // counter of /24 blocks for IXP LANs
}

func newPrefixAllocator() *prefixAllocator {
	return &prefixAllocator{
		next19: iptrie.MustParseAddr("1.0.0.0") >> 13,
		next24: iptrie.MustParseAddr("195.0.0.0") >> 8,
	}
}

func (a *prefixAllocator) as19() iptrie.Prefix {
	p := iptrie.Prefix{Addr: a.next19 << 13, Len: 19}
	a.next19++
	return p
}

func (a *prefixAllocator) ixp24() iptrie.Prefix {
	p := iptrie.Prefix{Addr: a.next24 << 8, Len: 24}
	a.next24++
	return p
}

// genInternet creates ASes, ISPs with PoP footprints, the AS-level graph,
// IXPs, submarine cables and anchors.
func (w *World) genInternet(r *rand.Rand) {
	alloc := newPrefixAllocator()
	taken := make(map[int]bool)

	// Pre-compute per-country city lists, population-sorted.
	cityByCountry := make(map[string][]int)
	for _, c := range w.Cities {
		cityByCountry[c.Country] = append(cityByCountry[c.Country], c.ID)
	}
	for _, ids := range cityByCountry {
		sort.Slice(ids, func(i, j int) bool {
			return w.Cities[ids[i]].Population > w.Cities[ids[j]].Population
		})
	}
	countryCodes := make([]string, 0, len(cityByCountry))
	for code := range cityByCountry {
		countryCodes = append(countryCodes, code)
	}
	sort.Strings(countryCodes)

	// 1. Embedded real ASes, each an ISP.
	for _, g := range gazASes {
		taken[g.asn] = true
		as := AS{
			ASN: g.asn,
			NamesBySource: map[string]string{
				"asrank": g.nameASRank, "peeringdb": g.namePDB,
			},
			OrgsBySource: map[string]string{
				"asrank": g.orgASRank, "peeringdb": g.orgPDB, "pch": g.orgPCH,
			},
			Tier:        g.tier,
			HomeCountry: g.homeCountry,
			Real:        true,
			ISP:         len(w.ISPs),
		}
		nPrefix := 1
		if g.tier == 1 {
			nPrefix = 4
		} else if g.tier == 2 {
			nPrefix = 2
		}
		for i := 0; i < nPrefix; i++ {
			as.Prefixes = append(as.Prefixes, alloc.as19())
		}
		isp := ISP{
			ID:      len(w.ISPs),
			ASN:     g.asn,
			Name:    g.nameASRank,
			InAtlas: true,
			MPLS:    g.mpls,
			Domain:  g.domain,
			Scheme:  schemeForISP(r),
			Real:    true,
		}
		w.buildRealFootprint(r, &isp, g, cityByCountry, countryCodes)
		w.asByASN[g.asn] = len(w.ASes)
		w.ASes = append(w.ASes, as)
		w.ISPs = append(w.ISPs, isp)
	}
	w.wireSpecialTopologies()

	// 2. Synthetic infrastructure ISPs.
	nextASN := 100
	newASN := func() int {
		for taken[nextASN] {
			nextASN++
		}
		taken[nextASN] = true
		n := nextASN
		nextASN++
		return n
	}
	nameTaken := map[string]bool{}
	for len(w.ISPs) < w.Cfg.NumISPs {
		asn := newASN()
		tier := 3
		switch {
		case len(w.ISPs) < w.Cfg.NumISPs/50:
			tier = 1
		case len(w.ISPs) < w.Cfg.NumISPs/4:
			tier = 2
		}
		base := synthName(r, nameTaken)
		as := AS{
			ASN: asn,
			NamesBySource: map[string]string{
				"asrank":    strings.ToUpper(base) + "-AS",
				"peeringdb": base + " Networks",
			},
			OrgsBySource: map[string]string{
				"asrank":    base + " Networks LLC",
				"peeringdb": base + " Networks",
				"pch":       base + " Networks, Inc.",
			},
			Tier:        tier,
			HomeCountry: countryCodes[r.Intn(len(countryCodes))],
			ISP:         len(w.ISPs),
		}
		as.Prefixes = append(as.Prefixes, alloc.as19())
		if tier <= 2 {
			as.Prefixes = append(as.Prefixes, alloc.as19())
		}
		domain := ""
		if r.Float64() < 0.85 {
			domain = strings.ToLower(base) + ".net"
		}
		dark := tier == 3 && r.Float64() < 0.12
		if dark {
			// Dark networks never register anywhere declarative.
			delete(as.NamesBySource, "peeringdb")
			delete(as.OrgsBySource, "peeringdb")
			delete(as.OrgsBySource, "pch")
			if domain == "" {
				domain = strings.ToLower(base) + ".net" // discoverable via rDNS
			}
		}
		isp := ISP{
			ID:      len(w.ISPs),
			ASN:     asn,
			Name:    base + " Networks",
			InAtlas: !dark && len(w.ISPs) < w.Cfg.NumAtlasNetworks,
			Dark:    dark,
			MPLS:    r.Float64() < 0.35,
			Domain:  domain,
			Scheme:  schemeForISP(r),
		}
		w.buildSyntheticFootprint(r, &isp, tier, cityByCountry, countryCodes)
		w.asByASN[asn] = len(w.ASes)
		w.ASes = append(w.ASes, as)
		w.ISPs = append(w.ISPs, isp)
	}

	// 3. Stub ASes (no modelled infrastructure) to reach the ASN target.
	// Real organizations often originate several ASNs (the paper counts
	// 81,879 organizations against 102,216 ASes), so a share of stubs reuse
	// an earlier org name.
	var orgPool []string
	for len(w.ASes) < w.Cfg.NumASNs {
		asn := newASN()
		base := synthName(r, nameTaken)
		org := base + " Inc."
		if len(orgPool) > 0 && r.Float64() < 0.35 {
			org = orgPool[r.Intn(len(orgPool))]
		} else {
			orgPool = append(orgPool, org)
		}
		as := AS{
			ASN: asn,
			NamesBySource: map[string]string{
				"asrank": strings.ToUpper(base),
			},
			OrgsBySource: map[string]string{
				"asrank": org,
			},
			Tier:        3,
			HomeCountry: countryCodes[r.Intn(len(countryCodes))],
			ISP:         -1,
			Prefixes:    []iptrie.Prefix{alloc.as19()},
		}
		// A third of stubs also appear in PeeringDB with divergent labels.
		if r.Float64() < 0.33 {
			as.NamesBySource["peeringdb"] = strings.ToLower(base) + "-net"
			as.OrgsBySource["peeringdb"] = org + " (PDB)"
		}
		w.asByASN[asn] = len(w.ASes)
		w.ASes = append(w.ASes, as)
	}

	w.genASLinks(r)
	w.genIXPs(r, alloc, cityByCountry)
	w.genCables(r)
	w.genAnchors(r)
	w.genRouters(r)
}

// buildRealFootprint grows an embedded AS's PoP set to its documented shape.
func (w *World) buildRealFootprint(r *rand.Rand, isp *ISP, g gazAS, cityByCountry map[string][]int, countryCodes []string) {
	add := func(cityID int) {
		for _, p := range isp.POPs {
			if p == cityID {
				return
			}
		}
		isp.POPs = append(isp.POPs, cityID)
	}
	switch g.asn {
	case 7018: // AT&T: exactly the Rocketfuel metros.
		for _, e := range rocketfuelEdges {
			add(w.cityByName[e[0]])
			add(w.cityByName[e[1]])
		}
	case 22773: // Cox: the 10 overlap metros + 20 more US metros.
		w.buildUSCableFootprint(r, isp, 30, cityByCountry)
	case 20115, 7843, 20001, 10796:
		// Charter family footprints are assigned jointly in
		// wireSpecialTopologies once all four exist.
	default:
		home := cityByCountry[g.homeCountry]
		if len(home) > 0 {
			add(home[0])
			if len(home) > 1 {
				add(home[1])
			}
		}
		// One to three metros in each of (countries-1) further countries.
		perm := r.Perm(len(countryCodes))
		added := map[string]bool{g.homeCountry: true}
		for _, ci := range perm {
			if len(added) >= g.countries {
				break
			}
			code := countryCodes[ci]
			if added[code] || len(cityByCountry[code]) == 0 {
				continue
			}
			added[code] = true
			ids := cityByCountry[code]
			n := 1 + r.Intn(min(3, len(ids)))
			for i := 0; i < n; i++ {
				add(ids[i])
			}
		}
	}
	w.linkPOPs(r, isp)
	// Declared presence: most PoPs are published; Cogent's Table 3 cities
	// are deliberately undeclared (they exist only as routers, discoverable
	// through rDNS).
	w.declare(r, isp)
}

// table3Cities are the Cogent metros the paper recovers through rDNS.
var table3Cities = []string{"Dresden", "Syracuse", "Hong Kong", "Orlando", "Katowice", "Jacksonville"}

// buildUSCableFootprint picks count US metros including the ten overlap
// metros (used by the Cox footprint).
func (w *World) buildUSCableFootprint(r *rand.Rand, isp *ISP, count int, cityByCountry map[string][]int) {
	for _, name := range usOverlapMetros {
		isp.POPs = append(isp.POPs, w.cityByName[name])
	}
	us := cityByCountry["US"]
	for _, id := range us {
		if len(isp.POPs) >= count {
			break
		}
		if w.containsPOP(isp, id) || w.isOverlapMetro(id) {
			continue
		}
		// Cox-only metros must avoid the Charter pool chosen later; mark by
		// parity of a deterministic hash to partition the US metro space.
		if (id*2654435761)%97 < 31 {
			isp.POPs = append(isp.POPs, id)
		}
	}
	w.linkPOPs(r, isp)
}

func (w *World) containsPOP(isp *ISP, cityID int) bool {
	for _, p := range isp.POPs {
		if p == cityID {
			return true
		}
	}
	return false
}

func (w *World) isOverlapMetro(cityID int) bool {
	name := w.Cities[cityID].Name
	for _, m := range usOverlapMetros {
		if m == name {
			return true
		}
	}
	return false
}

// buildSyntheticFootprint places a synthetic ISP's PoPs.
func (w *World) buildSyntheticFootprint(r *rand.Rand, isp *ISP, tier int, cityByCountry map[string][]int, countryCodes []string) {
	as := w.ASes // home country is on the AS; the AS isn't appended yet, so derive again
	_ = as
	var nCountries, popsPer int
	switch tier {
	case 1:
		nCountries, popsPer = 12+r.Intn(24), 2
	case 2:
		nCountries, popsPer = 2+r.Intn(5), 3
	default:
		nCountries, popsPer = 1, 2
	}
	home := countryCodes[r.Intn(len(countryCodes))]
	countries := []string{home}
	for len(countries) < nCountries {
		countries = append(countries, countryCodes[r.Intn(len(countryCodes))])
	}
	for _, code := range countries {
		ids := cityByCountry[code]
		if len(ids) == 0 {
			continue
		}
		n := min(popsPer+r.Intn(2), len(ids))
		for i := 0; i < n; i++ {
			id := ids[r.Intn(min(len(ids), 12))] // prefer large metros
			if !w.containsPOP(isp, id) {
				isp.POPs = append(isp.POPs, id)
			}
		}
	}
	if len(isp.POPs) == 0 {
		ids := cityByCountry[home]
		if len(ids) > 0 {
			isp.POPs = append(isp.POPs, ids[0])
		} else {
			isp.POPs = append(isp.POPs, r.Intn(len(w.Cities)))
		}
	}
	w.linkPOPs(r, isp)
	w.declare(r, isp)
}

// linkPOPs builds the ISP's internal PoP adjacency: a chain through its
// PoPs ordered by longitude plus shortcuts, approximating a backbone.
func (w *World) linkPOPs(r *rand.Rand, isp *ISP) {
	if isp.ASN == 7018 {
		// AT&T uses the exact Rocketfuel adjacency.
		for _, e := range rocketfuelEdges {
			isp.Links = append(isp.Links, [2]int{w.cityByName[e[0]], w.cityByName[e[1]]})
		}
		return
	}
	if len(isp.POPs) < 2 {
		return
	}
	ordered := append([]int(nil), isp.POPs...)
	sort.Slice(ordered, func(i, j int) bool {
		return w.Cities[ordered[i]].Loc.Lon < w.Cities[ordered[j]].Loc.Lon
	})
	// Greedy nearest-unvisited chain keeps links short.
	visited := map[int]bool{ordered[0]: true}
	cur := ordered[0]
	for len(visited) < len(ordered) {
		best, bestD := -1, math.Inf(1)
		for _, id := range ordered {
			if visited[id] {
				continue
			}
			if d := geo.Haversine(w.Cities[cur].Loc, w.Cities[id].Loc); d < bestD {
				best, bestD = id, d
			}
		}
		isp.Links = append(isp.Links, [2]int{cur, best})
		visited[best] = true
		cur = best
	}
	// A few redundancy shortcuts.
	extra := len(ordered) / 4
	for i := 0; i < extra; i++ {
		a := ordered[r.Intn(len(ordered))]
		b := ordered[r.Intn(len(ordered))]
		if a != b {
			isp.Links = append(isp.Links, [2]int{a, b})
		}
	}
}

// declare marks which PoPs the ISP publishes to PeeringDB/Atlas. Undeclared
// PoPs exist only as routers (the paper's Table 3 scenario).
func (w *World) declare(r *rand.Rand, isp *ISP) {
	// Declared is modelled as POPs minus a hidden subset; hidden PoPs are
	// recorded via the Hidden map on the ISP by convention of order: we
	// reuse POPs ordering and store the declared count boundary instead.
	// Simpler: store in dedicated field.
	isp.declared = make([]bool, len(isp.POPs))
	if isp.Dark {
		return // dark networks declare nothing anywhere
	}
	for i := range isp.POPs {
		isp.declared[i] = r.Float64() < 0.8
	}
	// Guarantee at least one declared PoP so the AS exists in PeeringDB.
	if len(isp.POPs) > 0 {
		isp.declared[0] = true
	}
	// The footprint-experiment networks (Figure 6's cable ISPs, Figure 8's
	// AT&T) keep complete PeeringDB records, as their real counterparts do.
	switch isp.ASN {
	case 22773, 20115, 7843, 20001, 10796, 7018:
		for i := range isp.declared {
			isp.declared[i] = true
		}
	}
	if isp.ASN == 174 {
		// Cogent: force the Table 3 cities into the footprint, undeclared.
		for _, name := range table3Cities {
			id := w.cityByName[name]
			found := false
			for i, p := range isp.POPs {
				if p == id {
					isp.declared[i] = false
					found = true
					break
				}
			}
			if !found {
				isp.POPs = append(isp.POPs, id)
				isp.declared = append(isp.declared, false)
				// Wire the hidden PoP into the backbone so traffic can pass
				// through it.
				nearest := w.nearestPOP(isp, id)
				if nearest >= 0 {
					isp.Links = append(isp.Links, [2]int{id, nearest})
				}
			}
		}
	}
}

func (w *World) nearestPOP(isp *ISP, cityID int) int {
	best, bestD := -1, math.Inf(1)
	for _, p := range isp.POPs {
		if p == cityID {
			continue
		}
		if d := geo.Haversine(w.Cities[cityID].Loc, w.Cities[p].Loc); d < bestD {
			best, bestD = p, d
		}
	}
	return best
}

// DeclaredPOPs returns the PoPs the ISP publishes to declarative sources.
func (isp *ISP) DeclaredPOPs() []int {
	var out []int
	for i, p := range isp.POPs {
		if i < len(isp.declared) && isp.declared[i] {
			out = append(out, p)
		}
	}
	return out
}

// wireSpecialTopologies hard-codes the footprints and adjacencies the
// paper's named experiments depend on.
func (w *World) wireSpecialTopologies() {
	r := rand.New(rand.NewSource(w.Cfg.Seed + 77))
	// Charter family: 71 distinct US metros, exactly 10 shared with Cox.
	var charterISPs []*ISP
	for i := range w.ISPs {
		switch w.ISPs[i].ASN {
		case 20115, 7843, 20001, 10796:
			charterISPs = append(charterISPs, &w.ISPs[i])
		}
	}
	if len(charterISPs) == 4 {
		var cox *ISP
		for i := range w.ISPs {
			if w.ISPs[i].ASN == 22773 {
				cox = &w.ISPs[i]
			}
		}
		pool := w.charterMetroPool(cox, 71)
		// Distribute: primary ASN gets the overlap metros plus a share.
		for i, cityID := range pool {
			isp := charterISPs[i%4]
			if i < 10 {
				isp = charterISPs[0] // overlap metros on the primary ASN
			}
			if !w.containsPOP(isp, cityID) {
				isp.POPs = append(isp.POPs, cityID)
			}
		}
		for _, isp := range charterISPs {
			isp.Links = nil
			w.linkPOPs(r, isp)
			w.declare(r, isp)
		}
	}

	// Figure 9 transit chain: LLNW's European backbone Madrid—Paris—
	// Frankfurt—Duesseldorf—Berlin; IPB regional in DE/NL/BE; UltraDNS in
	// Madrid.
	chain := []string{"Madrid", "Paris", "Frankfurt", "Duesseldorf", "Berlin"}
	if llnw := w.ispByASN(22822); llnw != nil {
		for _, name := range chain {
			id := w.cityByName[name]
			if !w.containsPOP(llnw, id) {
				llnw.POPs = append(llnw.POPs, id)
				llnw.declared = append(llnw.declared, true)
			}
		}
		for i := 0; i+1 < len(chain); i++ {
			llnw.Links = append(llnw.Links, [2]int{w.cityByName[chain[i]], w.cityByName[chain[i+1]]})
		}
	}
	if ipb := w.ispByASN(20647); ipb != nil {
		for _, name := range []string{"Berlin", "Hamburg", "Amsterdam", "Brussels", "Frankfurt"} {
			id := w.cityByName[name]
			if !w.containsPOP(ipb, id) {
				ipb.POPs = append(ipb.POPs, id)
				ipb.declared = append(ipb.declared, true)
			}
		}
		ipb.Links = nil
		w.linkPOPs(r, ipb)
	}
	if udns := w.ispByASN(12008); udns != nil {
		id := w.cityByName["Madrid"]
		if !w.containsPOP(udns, id) {
			udns.POPs = append(udns.POPs, id)
			udns.declared = append(udns.declared, true)
			w.linkPOPs(r, udns)
		}
	}

	// Figure 7: Cogent's mid-US backbone with the Tulsa/OKC corridors, and
	// the source/destination edge networks.
	if cogent := w.ispByASN(174); cogent != nil {
		usCore := []string{"Kansas City", "Tulsa", "Oklahoma City", "Dallas", "Houston", "Atlanta"}
		for _, name := range usCore {
			id := w.cityByName[name]
			if !w.containsPOP(cogent, id) {
				cogent.POPs = append(cogent.POPs, id)
				cogent.declared = append(cogent.declared, true)
			} else {
				// The corridor PoPs must be publicly declared for the
				// Figure 7 analysis to see Cogent's peering locations.
				for i, p := range cogent.POPs {
					if p == id && i < len(cogent.declared) {
						cogent.declared[i] = true
					}
				}
			}
		}
		adj := [][2]string{
			{"Kansas City", "Tulsa"}, {"Tulsa", "Dallas"},
			{"Kansas City", "Oklahoma City"}, {"Oklahoma City", "Dallas"},
			{"Dallas", "Houston"}, {"Houston", "Atlanta"},
		}
		for _, e := range adj {
			cogent.Links = append(cogent.Links, [2]int{w.cityByName[e[0]], w.cityByName[e[1]]})
		}
	}
	if anchorNet := w.ispByASN(64199); anchorNet != nil {
		id := w.cityByName["Kansas City"]
		if !w.containsPOP(anchorNet, id) {
			anchorNet.POPs = append(anchorNet.POPs, id)
			anchorNet.declared = append(anchorNet.declared, true)
		}
	}
	if wbs := w.ispByASN(12186); wbs != nil {
		for _, name := range []string{"Kansas City", "Denver", "Chicago", "Dallas"} {
			id := w.cityByName[name]
			if !w.containsPOP(wbs, id) {
				wbs.POPs = append(wbs.POPs, id)
				wbs.declared = append(wbs.declared, true)
			}
		}
		wbs.Links = nil
		w.linkPOPs(r, wbs)
	}
	if vultr := w.ispByASN(20473); vultr != nil {
		id := w.cityByName["Atlanta"]
		if !w.containsPOP(vultr, id) {
			vultr.POPs = append(vultr.POPs, id)
			vultr.declared = append(vultr.declared, true)
			w.linkPOPs(r, vultr)
		}
	}
}

// charterMetroPool selects 71 US metros for Charter: the 10 Cox-overlap
// metros plus 61 US metros disjoint from Cox's exclusive footprint.
func (w *World) charterMetroPool(cox *ISP, total int) []int {
	var pool []int
	for _, name := range usOverlapMetros {
		pool = append(pool, w.cityByName[name])
	}
	for _, c := range w.Cities {
		if len(pool) >= total {
			break
		}
		if c.Country != "US" || w.isOverlapMetro(c.ID) {
			continue
		}
		if cox != nil && w.containsPOP(cox, c.ID) {
			continue
		}
		pool = append(pool, c.ID)
	}
	return pool
}

func (w *World) ispByASN(asn int) *ISP {
	for i := range w.ISPs {
		if w.ISPs[i].ASN == asn {
			return &w.ISPs[i]
		}
	}
	return nil
}

// genASLinks builds the AS-level topology: providers for every non-tier-1
// AS plus dense tier-1 interconnection and random peering, targeting the
// paper's ~4.1 links per AS.
func (w *World) genASLinks(r *rand.Rand) {
	var tier1, tier2 []int // ASNs
	for _, as := range w.ASes {
		switch as.Tier {
		case 1:
			tier1 = append(tier1, as.ASN)
		case 2:
			tier2 = append(tier2, as.ASN)
		}
	}
	seen := make(map[[2]int]bool)
	add := func(a, b int, kind string) {
		if a == b {
			return
		}
		k := [2]int{min(a, b), max(a, b)}
		if seen[k] {
			return
		}
		seen[k] = true
		w.ASLinks = append(w.ASLinks, ASLink{A: a, B: b, Kind: kind})
	}
	// Tier-1 mesh.
	for i, a := range tier1 {
		for _, b := range tier1[i+1:] {
			if r.Float64() < 0.8 {
				add(a, b, "p2p")
			}
		}
	}
	// Everyone below tier 1 buys transit.
	for _, as := range w.ASes {
		switch as.Tier {
		case 2:
			n := 1 + r.Intn(3)
			for i := 0; i < n; i++ {
				add(tier1[r.Intn(len(tier1))], as.ASN, "p2c")
			}
		case 3:
			n := 1 + r.Intn(2)
			for i := 0; i < n; i++ {
				var provider int
				if len(tier2) > 0 && r.Float64() < 0.8 {
					provider = tier2[r.Intn(len(tier2))]
				} else {
					provider = tier1[r.Intn(len(tier1))]
				}
				add(provider, as.ASN, "p2c")
			}
		}
	}
	// Hard-wired adjacencies for the named experiments.
	add(12008, 22822, "p2p")
	add(22822, 20647, "p2c")
	add(12186, 64199, "p2c")
	add(174, 12186, "p2p")
	add(174, 20473, "p2p")
	// Random additional peering to reach the target density (~4.1 links/AS).
	target := int(4.1 * float64(len(w.ASes)))
	for len(w.ASLinks) < target {
		a := w.ASes[r.Intn(len(w.ASes))].ASN
		b := w.ASes[r.Intn(len(w.ASes))].ASN
		add(a, b, "p2p")
	}
}

// genIXPs creates exchanges in large metros with members drawn from ISPs
// present in the metro plus remote peers.
func (w *World) genIXPs(r *rand.Rand, alloc *prefixAllocator, cityByCountry map[string][]int) {
	// ISP presence per city.
	present := make(map[int][]int) // city -> ISP ids
	for _, isp := range w.ISPs {
		for _, p := range isp.POPs {
			present[p] = append(present[p], isp.ID)
		}
	}
	// Host cities: largest metros first.
	ordered := make([]int, 0, len(w.Cities))
	for _, c := range w.Cities {
		ordered = append(ordered, c.ID)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return w.Cities[ordered[i]].Population > w.Cities[ordered[j]].Population
	})
	for i := 0; i < w.Cfg.NumIXPs && i < len(ordered); i++ {
		city := ordered[i%len(ordered)]
		ix := IXP{
			ID:     len(w.IXPs),
			Name:   fmt.Sprintf("%s-IX", strings.ToUpper(CityCode(w.Cities[city].Name))),
			City:   city,
			Prefix: alloc.ixp24(),
			Euro:   w.Cities[city].Continent == 2,
		}
		hostIP := ix.Prefix.Addr + 1
		addMember := func(asn, trueCity int, remote bool) {
			ix.Members = append(ix.Members, IXPMember{
				ASN: asn, Remote: remote, TrueCity: trueCity, IP: hostIP,
			})
			hostIP++
		}
		for _, ispID := range present[city] {
			if w.ISPs[ispID].Dark {
				continue
			}
			if r.Float64() < 0.7 {
				addMember(w.ISPs[ispID].ASN, city, false)
			}
		}
		// Remote peers: ISPs without local presence.
		nRemote := int(float64(len(ix.Members)) * w.Cfg.RemotePeerFraction / (1 - w.Cfg.RemotePeerFraction))
		for j := 0; j < nRemote; j++ {
			isp := w.ISPs[r.Intn(len(w.ISPs))]
			if isp.Dark || w.containsPOP(&isp, city) || len(isp.POPs) == 0 {
				continue
			}
			addMember(isp.ASN, isp.POPs[r.Intn(len(isp.POPs))], true)
		}
		w.IXPs = append(w.IXPs, ix)
	}
}

// genCables lays submarine cables between coastal cities on different
// continents, with great-circle paths bulged away from land.
func (w *World) genCables(r *rand.Rand) {
	coastalByCont := make(map[int][]int)
	for _, c := range w.Cities {
		if c.Coastal {
			coastalByCont[c.Continent] = append(coastalByCont[c.Continent], c.ID)
		}
	}
	// Corridor weights approximate real cable density.
	corridors := [][2]int{{0, 2}, {0, 4}, {2, 4}, {2, 3}, {0, 1}, {4, 5}, {1, 3}, {3, 4}, {2, 2}, {0, 0}}
	nameTaken := map[string]bool{}
	for i := 0; i < w.Cfg.NumCables; i++ {
		cor := corridors[r.Intn(len(corridors))]
		as, bs := coastalByCont[cor[0]], coastalByCont[cor[1]]
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		a := as[r.Intn(len(as))]
		b := bs[r.Intn(len(bs))]
		if a == b {
			continue
		}
		landings := []int{a, b}
		// Some cables pick up an extra landing near an endpoint.
		if r.Float64() < 0.3 && len(bs) > 1 {
			c := bs[r.Intn(len(bs))]
			if c != a && c != b {
				landings = append(landings, c)
			}
		}
		path := cablePath(r, w.Cities[a].Loc, w.Cities[b].Loc)
		nOwners := 1 + r.Intn(4)
		owners := make([]string, 0, nOwners)
		for j := 0; j < nOwners; j++ {
			owner := w.ASes[r.Intn(len(w.ASes))]
			owners = append(owners, owner.OrgsBySource["asrank"])
		}
		w.Cables = append(w.Cables, Cable{
			Name:     synthName(r, nameTaken) + " Cable",
			Landings: landings,
			Path:     path,
			Owners:   owners,
			LengthKm: geo.PathLengthKm(path),
		})
	}
}

func cablePath(r *rand.Rand, a, b geo.Point) []geo.Point {
	d := geo.Haversine(a, b)
	n := 3 + int(d/1500)
	if n > 10 {
		n = 10
	}
	bulge := (r.Float64()*0.12 + 0.04) * d
	side := 1.0
	if r.Float64() < 0.5 {
		side = -1
	}
	path := []geo.Point{a}
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n+1)
		mid := geo.Interpolate(a, b, f)
		brng := geo.InitialBearing(a, b) + 90*side
		off := bulge * math.Sin(f*math.Pi)
		path = append(path, geo.Destination(mid, brng, off))
	}
	return append(path, b)
}

// genAnchors drops measurement anchors in ISP PoP metros.
func (w *World) genAnchors(r *rand.Rand) {
	// Guaranteed anchors for the paper's named traceroutes.
	guaranteed := []struct {
		city string
		asn  int
	}{
		{"Kansas City", 64199},
		{"Atlanta", 20473},
		{"Madrid", 12008},
		{"Berlin", 20647},
	}
	for _, g := range guaranteed {
		cityID := w.CityID(g.city)
		if cityID < 0 {
			continue
		}
		as := w.ASByNumber(g.asn)
		if as == nil {
			continue
		}
		ip := w.allocIP(g.asn)
		if ip == 0 {
			continue
		}
		w.Anchors = append(w.Anchors, Anchor{
			ID:   len(w.Anchors),
			City: cityID,
			ASN:  g.asn,
			IP:   ip,
		})
	}
	for len(w.Anchors) < w.Cfg.NumAnchors {
		isp := w.ISPs[r.Intn(len(w.ISPs))]
		if len(isp.POPs) == 0 {
			continue
		}
		city := isp.POPs[r.Intn(len(isp.POPs))]
		ip := w.allocIP(isp.ASN)
		if ip == 0 {
			continue
		}
		w.Anchors = append(w.Anchors, Anchor{
			ID:   len(w.Anchors),
			City: city,
			ASN:  isp.ASN,
			IP:   ip,
		})
	}
}

// genRouters materializes one router per (AS, PoP) with hostnames according
// to the ISP naming scheme and the configured rDNS coverage.
func (w *World) genRouters(r *rand.Rand) {
	for i := range w.ISPs {
		isp := &w.ISPs[i]
		as := w.ASByNumber(isp.ASN)
		for _, city := range isp.POPs {
			w.ensureRouter(r, as, isp, city)
		}
	}
}

// ensureRouter returns the router for (asn, city), creating it on first use.
func (w *World) ensureRouter(r *rand.Rand, as *AS, isp *ISP, city int) *Router {
	key := [2]int{as.ASN, city}
	if i, ok := w.routerByKey[key]; ok {
		return &w.Routers[i]
	}
	ip := w.allocIP(as.ASN)
	if ip == 0 {
		ip = as.Prefixes[0].Addr + 16 // exhausted block: reuse the first host
	}
	rt := Router{
		ID:   len(w.Routers),
		ASN:  as.ASN,
		City: city,
		IP:   ip,
	}
	// Real embedded ISPs always publish PTR records with geohints (their
	// conventions are documented, e.g. Cogent's in Table 3); synthetic ISPs
	// follow the configured rDNS coverage and geohint fractions.
	if isp != nil && isp.Domain != "" && (isp.Real || r.Float64() < w.Cfg.RDNSCoverage) {
		code := ""
		if isp.Real || r.Float64() < w.Cfg.GeohintFraction {
			code = w.CityCodeOf(city)
			rt.Geohint = true
		}
		rt.Hostname = isp.Scheme.Hostname(r, code, isp.Domain)
	}
	w.routerByKey[key] = len(w.Routers)
	w.Routers = append(w.Routers, rt)
	return &w.Routers[len(w.Routers)-1]
}
