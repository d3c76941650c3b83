package experiments

import (
	"fmt"
	"sort"

	"igdb/internal/geoloc"
	"igdb/internal/iptrie"
)

// Table1 reproduces "Select database characteristics": the row counts that
// summarize iGDB's coverage. Paper values: 102,216 ASes; 81,879
// organizations; 29,220 physical nodes; 210 countries with nodes; 8,323
// inferred physical paths; 511 submarine cables.
func (e *Env) Table1() Result {
	r := Result{
		ID:     "table1",
		Title:  "Table 1: Select database characteristics",
		Header: []string{"Type", "Value"},
	}
	count := func(sql string) int64 {
		rows := e.G.Rel.MustQuery(sql)
		n, _ := rows.Rows[0][0].AsInt()
		return n
	}
	ases := count(`SELECT COUNT(DISTINCT asn) FROM asn_name`)
	orgs := count(`SELECT COUNT(DISTINCT organization) FROM asn_org`)
	nodes := count(`SELECT COUNT(*) FROM phys_nodes`)
	countries := count(`SELECT COUNT(DISTINCT country) FROM phys_nodes`)
	pathsN := count(`SELECT COUNT(*) FROM std_paths`)
	cables := count(`SELECT COUNT(*) FROM sub_cables`)

	r.addRow("Number of ASes", fmt.Sprintf("%d", ases))
	r.addRow("Number of organizations", fmt.Sprintf("%d", orgs))
	r.addRow("Number of physical nodes", fmt.Sprintf("%d", nodes))
	r.addRow("Number of countries with nodes", fmt.Sprintf("%d", countries))
	r.addRow("Number of inferred physical paths", fmt.Sprintf("%d", pathsN))
	r.addRow("Number of submarine cables", fmt.Sprintf("%d", cables))

	r.notef("paper: 102216 ASes / 81879 orgs / 29220 nodes / 210 countries / 8323 paths / 511 cables")
	r.notef("measured: %d / %d / %d / %d / %d / %d", ases, orgs, nodes, countries, pathsN, cables)
	return r
}

// Table2 reproduces "ASes with physical presence in the most countries".
// Paper's top three: Cloudflare (52), Hurricane Electric (50), Microsoft
// (50); eleven rows total down to 35 countries.
func (e *Env) Table2() Result {
	r := Result{
		ID:     "table2",
		Title:  "Table 2: ASes with physical presence in the most countries",
		Header: []string{"ASNumber", "ASName", "Organization", "Countries"},
	}
	rows := e.G.Rel.MustQuery(`
		SELECT l.asn, MIN(n.asn_name) AS name, MIN(o.organization) AS org,
		       COUNT(DISTINCT l.country) AS countries
		FROM asn_loc l
		JOIN asn_name n ON n.asn = l.asn AND n.source = 'asrank'
		JOIN asn_org o ON o.asn = l.asn AND o.source = 'asrank'
		GROUP BY l.asn
		ORDER BY countries DESC, l.asn ASC
		LIMIT 11`)
	for _, row := range rows.Rows {
		asn, _ := row[0].AsInt()
		name, _ := row[1].AsText()
		org, _ := row[2].AsText()
		n, _ := row[3].AsInt()
		r.addRow(fmt.Sprintf("%d", asn), name, org, fmt.Sprintf("%d", n))
	}
	if rows.Len() > 0 {
		topASN, _ := rows.Rows[0][0].AsInt()
		topN, _ := rows.Rows[0][3].AsInt()
		r.notef("paper: AS13335 (Cloudflare) leads with 52 countries; measured leader: AS%d with %d", topASN, topN)
	}
	return r
}

// Table3 reproduces "Missing locations in Internet Atlas and PeeringDB for
// AS174 (Cogent)": metros observed via traceroute rDNS hostnames that the
// declarative sources do not list. The paper shows six example metros and
// reports >104 missing cities overall.
func (e *Env) Table3() Result {
	r := Result{
		ID:     "table3",
		Title:  "Table 3: Missing locations in Internet Atlas and PeeringDB for AS174",
		Header: []string{"Reverse Hostname", "Metro"},
	}
	// Declared AS174 metros from the database.
	declared := map[string]bool{}
	rows := e.G.Rel.MustQuery(`SELECT DISTINCT metro, country FROM asn_loc WHERE asn = 174`)
	for _, row := range rows.Rows {
		m, _ := row[0].AsText()
		c, _ := row[1].AsText()
		declared[m+"-"+c] = true
	}
	rows = e.G.Rel.MustQuery(`SELECT DISTINCT metro, country FROM phys_nodes
		WHERE organization LIKE '%COGENT%' OR organization LIKE '%Cogent%'`)
	for _, row := range rows.Rows {
		m, _ := row[0].AsText()
		c, _ := row[1].AsText()
		declared[m+"-"+c] = true
	}

	// Observed AS174 hops across the mesh, geolocated via Hoiho. The same
	// hostname can be geolocated differently under different measurement
	// contexts, so each hostname takes its majority metro.
	votes := map[string]map[string]int{}
	for _, ta := range e.P.Analyses() {
		for _, h := range ta.Hops {
			if h.ASN != 174 || h.GeoSource != "hoiho" || h.Hostname == "" {
				continue
			}
			if votes[h.Hostname] == nil {
				votes[h.Hostname] = map[string]int{}
			}
			votes[h.Hostname][e.G.Cities[h.City].Metro()]++
		}
	}
	missing := map[string]string{} // metro -> hostname
	for host, byMetro := range votes {
		bestMetro, bestN := "", 0
		for metro, n := range byMetro {
			if n > bestN || (n == bestN && metro < bestMetro) {
				bestMetro, bestN = metro, n
			}
		}
		if declared[bestMetro] {
			continue
		}
		// Several hostnames can vote for one metro; keep the smallest so
		// the row does not depend on map iteration order.
		if cur, seen := missing[bestMetro]; !seen || host < cur {
			missing[bestMetro] = host
		}
	}
	metros := make([]string, 0, len(missing))
	for m := range missing {
		metros = append(metros, m)
	}
	sort.Strings(metros)
	for _, m := range metros {
		r.addRow(missing[m], m)
	}
	r.notef("paper: >104 Cogent metros recovered via rDNS that declarative sources omit; measured: %d", len(missing))
	r.notef("ground truth plants undeclared Cogent PoPs in Dresden, Syracuse, Hong Kong, Orlando, Katowice, Jacksonville")
	return r
}

// Section44 reproduces the belief-propagation statistics of §4.4: counts of
// newly inferred (city, AS) tuples, metros and ASes touched, the
// rDNS-resolution and geohint rates, and consistency against independent
// locators. Paper: 2231 new tuples across >124 metros and 240 ASes; 36% of
// IPs unresolvable; 86% of resolving hostnames without geohints; 86%
// BP/Hoiho+IXP agreement; 177 ASes gain first geolocation.
func (e *Env) Section44() Result {
	r := Result{
		ID:     "section44",
		Title:  "§4.4: Inferring geographic information from logical measurements",
		Header: []string{"Metric", "Value"},
	}
	stats := e.beliefPropagation()

	r.addRow("observed traceroute IPs", intCell(stats.observedIPs))
	r.addRow("IPs resolving via rDNS", fmt.Sprintf("%d (%.0f%%)", stats.resolved, 100*float64(stats.resolved)/float64(max(1, stats.observedIPs))))
	r.addRow("resolving IPs with geohint", fmt.Sprintf("%d (%.0f%%)", stats.geohinted, 100*float64(stats.geohinted)/float64(max(1, stats.resolved))))
	r.addRow("seed locations (hoiho+ixp+anchor)", intCell(stats.seeds))
	r.addRow("IPs newly geolocated by BP", intCell(stats.inferred))
	r.addRow("new (city, AS) tuples", intCell(stats.newTuples))
	r.addRow("distinct metros gained", intCell(stats.newMetros))
	r.addRow("distinct ASes gained", intCell(stats.newASes))
	r.addRow("ASes with first-ever geolocation", intCell(stats.firstGeoASes))
	if stats.consistencyTotal > 0 {
		r.addRow("BP vs independent locator agreement",
			fmt.Sprintf("%d/%d (%.0f%%)", stats.consistencyAgree, stats.consistencyTotal,
				100*float64(stats.consistencyAgree)/float64(stats.consistencyTotal)))
	}
	r.addRow("BP accuracy vs ground truth", fmt.Sprintf("%.0f%%", 100*stats.truthAccuracy))

	r.notef("paper: 2231 new tuples, >124 metros, 240 ASes, 86%% consistency, 64%% resolve, 14%% geohinted")
	r.notef("ground-truth accuracy is only measurable in this reproduction (the live Internet has no oracle)")
	return r
}

type bpStats struct {
	observedIPs      int
	resolved         int
	geohinted        int
	seeds            int
	inferred         int
	newTuples        int
	newMetros        int
	newASes          int
	firstGeoASes     int
	consistencyAgree int
	consistencyTotal int
	truthAccuracy    float64
}

func (e *Env) beliefPropagation() bpStats {
	var st bpStats
	seen := map[uint32]bool{}
	for _, m := range e.P.Measurements {
		for _, h := range m.Hops {
			addr, err := iptrie.ParseAddr(h.IP)
			if err != nil || seen[addr] {
				continue
			}
			seen[addr] = true
			st.observedIPs++
			if host, ok := e.P.PTR[addr]; ok {
				st.resolved++
				if _, located := e.P.Hoiho.Locate(host); located {
					st.geohinted++
				}
			}
		}
	}
	known := e.P.KnownLocations()
	st.seeds = len(known)
	inferred := propagate(e, known)
	st.inferred = len(inferred)

	// Existing (metro, AS) pairs from asn_loc.
	existing := map[[2]int]bool{}
	asWithGeo := map[int]bool{}
	rows := e.G.Rel.MustQuery(`SELECT DISTINCT asn, metro, state_province, country FROM asn_loc`)
	for _, row := range rows.Rows {
		asn64, _ := row[0].AsInt()
		m, _ := row[1].AsText()
		s, _ := row[2].AsText()
		c, _ := row[3].AsText()
		city := e.G.CityIndex(m, s, c)
		if city >= 0 {
			existing[[2]int{city, int(asn64)}] = true
		}
		asWithGeo[int(asn64)] = true
	}
	ipASN := map[uint32]int{}
	for _, o := range e.P.Observations() {
		for i, ip := range o.IPs {
			if o.ASNs[i] >= 0 {
				ipASN[ip] = o.ASNs[i]
			}
		}
	}
	tuples := geoloc.NewTuples(inferred, ipASN, existing)
	metroSet := map[int]bool{}
	asSet := map[int]bool{}
	firstGeo := map[int]bool{}
	for key := range tuples {
		city, asn := key[0], key[1]
		metroSet[city] = true
		asSet[asn] = true
		if !asWithGeo[asn] {
			firstGeo[asn] = true
		}
	}
	st.newTuples = len(tuples)
	st.newMetros = len(metroSet)
	st.newASes = len(asSet)
	st.firstGeoASes = len(firstGeo)

	// Consistency vs Hoiho-only locations (held out of the seed set): the
	// paper's §4.4 cross-check. Per-IP sources come from the context-aware
	// trace analysis.
	holdout := map[uint32]int{}
	seedNoHoiho := map[uint32]int{}
	for _, ta := range e.P.Analyses() {
		for _, h := range ta.Hops {
			if h.City < 0 {
				continue
			}
			if h.GeoSource == "hoiho" {
				if _, have := holdout[h.IP]; !have {
					holdout[h.IP] = h.City
				}
			} else {
				if _, have := seedNoHoiho[h.IP]; !have {
					seedNoHoiho[h.IP] = h.City
				}
			}
		}
	}
	st.consistencyAgree, st.consistencyTotal = geoloc.Consistency(propagate(e, seedNoHoiho), holdout)

	// Ground-truth accuracy.
	truth := map[uint32]int{}
	for _, tr := range e.World.Traces {
		for _, h := range tr.Hops {
			truth[h.IP] = h.City
		}
	}
	correct, total := 0, 0
	for ip, inf := range inferred {
		want, ok := truth[ip]
		if !ok {
			continue
		}
		total++
		if e.G.Cities[inf.City].Name == e.World.Cities[want].Name {
			correct++
		}
	}
	if total > 0 {
		st.truthAccuracy = float64(correct) / float64(total)
	}
	return st
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
