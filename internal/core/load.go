package core

import (
	"igdb/internal/geo"
	"igdb/internal/ingest"
	"igdb/internal/iptrie"
	"igdb/internal/reldb"
	"igdb/internal/sources/asrank"
	"igdb/internal/sources/atlas"
	"igdb/internal/sources/euroix"
	"igdb/internal/sources/he"
	"igdb/internal/sources/naturalearth"
	"igdb/internal/sources/pch"
	"igdb/internal/sources/peeringdb"
	"igdb/internal/sources/rdns"
	"igdb/internal/sources/ripeatlas"
	"igdb/internal/sources/routeviews"
	"igdb/internal/sources/telegeography"
	"igdb/internal/spatial"
	"igdb/internal/voronoi"
	"igdb/internal/wkt"
)

// loadCities builds the standard-city gazetteer, the k-d tree used by every
// spatial join, the Thiessen tessellation, and the city_points/
// city_polygons relations.
func (g *IGDB) loadCities(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("naturalearth", opts.AsOf)
	if err != nil {
		return err
	}
	places, _, err := naturalearth.Parse(&naturalearth.Dataset{
		PlacesCSV: snap.Files["places.csv"],
		RoadsCSV:  snap.Files["roads.csv"],
	})
	if err != nil {
		return err
	}
	gaz := g.span.Start("gazetteer")
	asOf := asOfText(snap.AsOf)
	entries := make([]spatial.Entry, 0, len(places))
	var rows [][]reldb.Value
	for _, p := range places {
		idx := len(g.Cities)
		c := StandardCity{
			Name: p.Name, State: p.State, Country: p.Country,
			Loc: p.Loc, Population: p.Population,
		}
		g.Cities = append(g.Cities, c)
		g.cityIdx[c.Key()] = idx
		entries = append(entries, spatial.Entry{P: p.Loc, ID: idx})
		rows = append(rows, []reldb.Value{
			reldb.Text(c.Name), reldb.Text(c.State), reldb.Text(c.Country),
			reldb.Float(c.Loc.Lon), reldb.Float(c.Loc.Lat),
			reldb.Int(int64(c.Population)), reldb.Text(asOf),
		})
	}
	g.tree = spatial.NewKDTree(entries)
	if err := g.Rel.BulkInsert("city_points", rows); err != nil {
		return err
	}
	gaz.SetAttr("cities", len(g.Cities))
	endStage(gaz)
	if opts.SkipPolygons {
		return nil
	}
	// The Thiessen tessellation is the §3.1 standardization join's spatial
	// substrate — the single heaviest sub-stage of the gazetteer load.
	vor := g.span.Start("voronoi")
	defer endStage(vor)
	sites := make([]geo.Point, len(g.Cities))
	for i, c := range g.Cities {
		sites[i] = c.Loc
	}
	g.Diagram = voronoi.Build(sites, voronoi.WorldBounds)
	vor.SetAttr("cells", len(g.Diagram.Cells))
	var prows [][]reldb.Value
	for i, cell := range g.Diagram.Cells {
		if cell == nil {
			continue
		}
		c := g.Cities[i]
		prows = append(prows, []reldb.Value{
			reldb.Text(c.Name), reldb.Text(c.State), reldb.Text(c.Country),
			reldb.Text(wkt.Marshal(wkt.NewPolygon([][]geo.Point{cell}))),
			reldb.Text(asOf),
		})
	}
	return g.Rel.BulkInsert("city_polygons", prows)
}

// loadAtlas standardizes Internet Atlas PoPs into phys_nodes and records the
// logical PoP adjacencies for standard-path inference.
func (g *IGDB) loadAtlas(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("atlas", opts.AsOf)
	if err != nil {
		return err
	}
	nodes, links, err := atlas.Parse(&atlas.Dataset{
		NodesCSV: snap.Files["nodes.csv"],
		LinksCSV: snap.Files["links.csv"],
	})
	if err != nil {
		return err
	}
	asOf := asOfText(snap.AsOf)
	nodeCity := make(map[string]int, len(nodes))
	var rows [][]reldb.Value
	for _, n := range nodes {
		idx := g.Standardize(geo.Point{Lon: n.Lon, Lat: n.Lat})
		if idx < 0 {
			continue
		}
		nodeCity[n.NodeName] = idx
		c := g.Cities[idx]
		rows = append(rows, []reldb.Value{
			reldb.Text(n.NodeName), reldb.Text(n.Network),
			reldb.Text(c.Name), reldb.Text(c.State), reldb.Text(c.Country),
			reldb.Float(n.Lat), reldb.Float(n.Lon),
			reldb.Text("atlas"), reldb.Text(asOf),
		})
	}
	if err := g.Rel.BulkInsert("phys_nodes", rows); err != nil {
		return err
	}
	// Unique standardized adjacencies drive right-of-way inference.
	seen := make(map[[2]int]bool)
	for _, l := range links {
		a, aok := nodeCity[l.FromNode]
		b, bok := nodeCity[l.ToNode]
		if !aok || !bok || a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			g.pendingAdjacencies = append(g.pendingAdjacencies, [2]int{a, b})
		}
	}
	return nil
}

// loadPeeringDB fills phys_nodes (facilities), asn_name/asn_org, ixps and
// asn_loc, flagging suspected remote peers (§3.3: an AS at an exchange with
// no facility presence in the metro is classified as remote).
func (g *IGDB) loadPeeringDB(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("peeringdb", opts.AsOf)
	if err != nil {
		return err
	}
	dump, err := peeringdb.Parse(snap.Files["dump.json"])
	if err != nil {
		return err
	}
	asOf := asOfText(snap.AsOf)

	var nameRows, orgRows [][]reldb.Value
	for _, n := range dump.Nets {
		nameRows = append(nameRows, []reldb.Value{
			reldb.Int(int64(n.ASN)), reldb.Text(n.Name), reldb.Text("peeringdb"), reldb.Text(asOf),
		})
		orgRows = append(orgRows, []reldb.Value{
			reldb.Int(int64(n.ASN)), reldb.Text(n.Org), reldb.Text("peeringdb"), reldb.Text(asOf),
		})
	}
	if err := g.Rel.BulkInsert("asn_name", nameRows); err != nil {
		return err
	}
	if err := g.Rel.BulkInsert("asn_org", orgRows); err != nil {
		return err
	}

	facCity := make(map[int]int, len(dump.Facs))
	var physRows [][]reldb.Value
	for _, f := range dump.Facs {
		idx := g.Standardize(geo.Point{Lon: f.Lon, Lat: f.Lat})
		if idx < 0 {
			continue
		}
		facCity[f.ID] = idx
		c := g.Cities[idx]
		physRows = append(physRows, []reldb.Value{
			reldb.Text(f.Name), reldb.Text(""),
			reldb.Text(c.Name), reldb.Text(c.State), reldb.Text(c.Country),
			reldb.Float(f.Lat), reldb.Float(f.Lon),
			reldb.Text("peeringdb"), reldb.Text(asOf),
		})
	}
	if err := g.Rel.BulkInsert("phys_nodes", physRows); err != nil {
		return err
	}

	// Facility presence: the declared physical footprint.
	hasFac := make(map[[2]int]bool) // (asn, city)
	var locRows [][]reldb.Value
	for _, nf := range dump.NetFacs {
		city, ok := facCity[nf.FacID]
		if !ok {
			continue
		}
		key := [2]int{nf.ASN, city}
		if hasFac[key] {
			continue
		}
		hasFac[key] = true
		c := g.Cities[city]
		locRows = append(locRows, []reldb.Value{
			reldb.Int(int64(nf.ASN)), reldb.Text(c.Name), reldb.Text(c.State),
			reldb.Text(c.Country), reldb.Text("peeringdb"), reldb.Bool(false), reldb.Text(asOf),
		})
	}

	// Exchanges: ixps + prefixes + member locations with remote detection.
	ixCity := make(map[int]int)
	var ixRows, pfxRows [][]reldb.Value
	for _, ix := range dump.IXs {
		idx := g.Standardize(geo.Point{Lon: ix.Lon, Lat: ix.Lat})
		if idx < 0 {
			continue
		}
		ixCity[ix.ID] = idx
		c := g.Cities[idx]
		ixRows = append(ixRows, []reldb.Value{
			reldb.Text(ix.Name), reldb.Text(c.Name), reldb.Text(c.Country),
			reldb.Text("peeringdb"), reldb.Text(asOf),
		})
		pfxRows = append(pfxRows, []reldb.Value{
			reldb.Text(ix.Name), reldb.Text(ix.PrefixV4), reldb.Text("peeringdb"), reldb.Text(asOf),
		})
	}
	if err := g.Rel.BulkInsert("ixps", ixRows); err != nil {
		return err
	}
	if err := g.Rel.BulkInsert("ixp_prefixes", pfxRows); err != nil {
		return err
	}
	seenIXLoc := make(map[[2]int]bool)
	for _, ni := range dump.NetIXs {
		city, ok := ixCity[ni.IXID]
		if !ok {
			continue
		}
		key := [2]int{ni.ASN, city}
		if seenIXLoc[key] {
			continue
		}
		seenIXLoc[key] = true
		remote := !hasFac[key]
		c := g.Cities[city]
		locRows = append(locRows, []reldb.Value{
			reldb.Int(int64(ni.ASN)), reldb.Text(c.Name), reldb.Text(c.State),
			reldb.Text(c.Country), reldb.Text("peeringdb-ix"), reldb.Bool(remote), reldb.Text(asOf),
		})
	}
	return g.Rel.BulkInsert("asn_loc", locRows)
}

// namedIXP is one record of a name-only IXP directory (PCH, HE).
type namedIXP struct {
	Name, City, Country string
	ASNs                []int
}

// addNamedIXPs resolves name-only IXP directory records (PCH, HE) against
// the standard gazetteer and inserts ixps + asn_loc rows.
func (g *IGDB) addNamedIXPs(recs []namedIXP, source, asOf string) error {
	var ixRows, locRows [][]reldb.Value
	for _, r := range recs {
		idx := g.CityByName(r.City, "", r.Country)
		if idx < 0 {
			continue // unresolvable metro label: dropped, as the paper does
		}
		c := g.Cities[idx]
		ixRows = append(ixRows, []reldb.Value{
			reldb.Text(r.Name), reldb.Text(c.Name), reldb.Text(c.Country),
			reldb.Text(source), reldb.Text(asOf),
		})
		for _, asn := range r.ASNs {
			locRows = append(locRows, []reldb.Value{
				reldb.Int(int64(asn)), reldb.Text(c.Name), reldb.Text(c.State),
				reldb.Text(c.Country), reldb.Text(source), reldb.Bool(false), reldb.Text(asOf),
			})
		}
	}
	if err := g.Rel.BulkInsert("ixps", ixRows); err != nil {
		return err
	}
	return g.Rel.BulkInsert("asn_loc", locRows)
}

// loadPCH loads the PCH IXP directory and its ASN→organization registry;
// cities resolve by label against the standard gazetteer.
func (g *IGDB) loadPCH(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("pch", opts.AsOf)
	if err != nil {
		return err
	}
	recs, err := pch.Parse(snap.Files["ixpdir.tsv"])
	if err != nil {
		return err
	}
	orgs, err := pch.ParseOrgs(snap.Files["asn_orgs.tsv"])
	if err != nil {
		return err
	}
	asOf := asOfText(snap.AsOf)
	var orgRows [][]reldb.Value
	for _, o := range orgs {
		orgRows = append(orgRows, []reldb.Value{
			reldb.Int(int64(o.ASN)), reldb.Text(o.Name), reldb.Text("pch"), reldb.Text(asOf),
		})
	}
	if err := g.Rel.BulkInsert("asn_org", orgRows); err != nil {
		return err
	}
	named := make([]namedIXP, len(recs))
	for i, r := range recs {
		named[i] = namedIXP{r.Name, r.City, r.Country, r.ASNs}
	}
	return g.addNamedIXPs(named, "pch", asOf)
}

// loadHE loads the Hurricane Electric exchange report, the second
// name-only IXP directory.
func (g *IGDB) loadHE(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("he", opts.AsOf)
	if err != nil {
		return err
	}
	recs, err := he.Parse(snap.Files["exchanges.txt"])
	if err != nil {
		return err
	}
	named := make([]namedIXP, len(recs))
	for i, r := range recs {
		named[i] = namedIXP{r.Name, r.City, r.Country, r.ASNs}
	}
	return g.addNamedIXPs(named, "he", asOfText(snap.AsOf))
}

// validateRouteViews parses the pfx2as table without materializing a
// relation: core stores nothing from RouteViews, but the paths pipeline
// builds its bdrmap trie from it, so the build validates (and the degraded
// mode quarantines) it like every other source.
func (g *IGDB) validateRouteViews(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("routeviews", opts.AsOf)
	if err != nil {
		return err
	}
	_, err = routeviews.Parse(snap.Files["pfx2as.tsv"])
	return err
}

// loadEuroIX adds the European exchange feed.
func (g *IGDB) loadEuroIX(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("euroix", opts.AsOf)
	if err != nil {
		return err
	}
	dump, err := euroix.Parse(snap.Files["ixps.json"])
	if err != nil {
		return err
	}
	asOf := asOfText(snap.AsOf)
	var ixRows, pfxRows, locRows [][]reldb.Value
	for _, ix := range dump.IXPs {
		idx := g.CityByName(ix.City, "", ix.Country)
		if idx < 0 {
			continue
		}
		c := g.Cities[idx]
		ixRows = append(ixRows, []reldb.Value{
			reldb.Text(ix.Name), reldb.Text(c.Name), reldb.Text(c.Country),
			reldb.Text("euroix"), reldb.Text(asOf),
		})
		pfxRows = append(pfxRows, []reldb.Value{
			reldb.Text(ix.Name), reldb.Text(ix.PrefixV4), reldb.Text("euroix"), reldb.Text(asOf),
		})
		for _, asn := range ix.Members {
			locRows = append(locRows, []reldb.Value{
				reldb.Int(int64(asn)), reldb.Text(c.Name), reldb.Text(c.State),
				reldb.Text(c.Country), reldb.Text("euroix"), reldb.Bool(false), reldb.Text(asOf),
			})
		}
	}
	if err := g.Rel.BulkInsert("ixps", ixRows); err != nil {
		return err
	}
	if err := g.Rel.BulkInsert("ixp_prefixes", pfxRows); err != nil {
		return err
	}
	return g.Rel.BulkInsert("asn_loc", locRows)
}

// loadASRank fills asn_name/asn_org (WHOIS flavor) and the asn_conn graph.
func (g *IGDB) loadASRank(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("asrank", opts.AsOf)
	if err != nil {
		return err
	}
	infos, links, err := asrank.Parse(&asrank.Dump{
		ASNsJSONL: snap.Files["asns.jsonl"],
		LinksTxt:  snap.Files["links.txt"],
	})
	if err != nil {
		return err
	}
	asOf := asOfText(snap.AsOf)
	var nameRows, orgRows [][]reldb.Value
	for _, i := range infos {
		nameRows = append(nameRows, []reldb.Value{
			reldb.Int(int64(i.ASN)), reldb.Text(i.ASNName), reldb.Text("asrank"), reldb.Text(asOf),
		})
		orgRows = append(orgRows, []reldb.Value{
			reldb.Int(int64(i.ASN)), reldb.Text(i.OrgName), reldb.Text("asrank"), reldb.Text(asOf),
		})
	}
	if err := g.Rel.BulkInsert("asn_name", nameRows); err != nil {
		return err
	}
	if err := g.Rel.BulkInsert("asn_org", orgRows); err != nil {
		return err
	}
	connRows := make([][]reldb.Value, 0, len(links))
	for _, l := range links {
		connRows = append(connRows, []reldb.Value{
			reldb.Int(int64(l.A)), reldb.Int(int64(l.B)), reldb.Int(int64(l.Rel)), reldb.Text(asOf),
		})
	}
	return g.Rel.BulkInsert("asn_conn", connRows)
}

// loadTelegeography fills sub_cables and land_points.
func (g *IGDB) loadTelegeography(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("telegeography", opts.AsOf)
	if err != nil {
		return err
	}
	dump, err := telegeography.Parse(snap.Files["cables.json"])
	if err != nil {
		return err
	}
	asOf := asOfText(snap.AsOf)
	var cableRows, landRows [][]reldb.Value
	for _, c := range dump.Cables {
		cableRows = append(cableRows, []reldb.Value{
			reldb.Int(int64(c.ID)), reldb.Text(c.Name), reldb.Float(c.LengthKm),
			reldb.Text(c.WKT), reldb.Text(asOf),
		})
		for _, l := range c.Landings {
			idx := g.Standardize(geo.Point{Lon: l.Lon, Lat: l.Lat})
			if idx < 0 {
				continue
			}
			sc := g.Cities[idx]
			landRows = append(landRows, []reldb.Value{
				reldb.Int(int64(c.ID)), reldb.Text(sc.Name), reldb.Text(sc.State),
				reldb.Text(sc.Country), reldb.Float(l.Lat), reldb.Float(l.Lon), reldb.Text(asOf),
			})
		}
	}
	if err := g.Rel.BulkInsert("sub_cables", cableRows); err != nil {
		return err
	}
	return g.Rel.BulkInsert("land_points", landRows)
}

// loadRDNS fills the rdns relation.
func (g *IGDB) loadRDNS(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("rdns", opts.AsOf)
	if err != nil {
		return err
	}
	recs, err := rdns.Parse(snap.Files["ptr.tsv"])
	if err != nil {
		return err
	}
	asOf := asOfText(snap.AsOf)
	rows := make([][]reldb.Value, 0, len(recs))
	for _, r := range recs {
		rows = append(rows, []reldb.Value{
			reldb.Text(iptrie.FormatAddr(r.IP)), reldb.Text(r.Hostname), reldb.Text(asOf),
		})
	}
	return g.Rel.BulkInsert("rdns", rows)
}

// loadAnchors fills the anchors relation — the direct ASN↔location bridge
// RIPE Atlas provides.
func (g *IGDB) loadAnchors(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("ripeatlas", opts.AsOf)
	if err != nil {
		return err
	}
	metas, _, err := ripeatlas.Parse(&ripeatlas.Dump{
		AnchorsJSON:       snap.Files["anchors.json"],
		MeasurementsJSONL: []byte{},
	})
	if err != nil {
		return err
	}
	asOf := asOfText(snap.AsOf)
	var rows [][]reldb.Value
	for _, m := range metas {
		idx := g.Standardize(geo.Point{Lon: m.Lon, Lat: m.Lat})
		if idx < 0 {
			continue
		}
		c := g.Cities[idx]
		rows = append(rows, []reldb.Value{
			reldb.Int(int64(m.ID)), reldb.Text(m.IP), reldb.Int(int64(m.ASN)),
			reldb.Text(c.Name), reldb.Text(c.State), reldb.Text(c.Country),
			reldb.Float(m.Lat), reldb.Float(m.Lon), reldb.Text(asOf),
		})
	}
	return g.Rel.BulkInsert("anchors", rows)
}
