package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"igdb/internal/geo"
	"igdb/internal/ingest"
	"igdb/internal/worldgen"
)

var (
	buildOnce  sync.Once
	smallWorld *worldgen.World
	smallDB    *IGDB
)

// testDB builds the small-world database once for all core tests.
func testDB(t *testing.T) (*worldgen.World, *IGDB) {
	t.Helper()
	buildOnce.Do(func() {
		smallWorld = worldgen.Generate(worldgen.SmallConfig())
		store := ingest.NewStore("")
		if err := ingest.Collect(smallWorld, store, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)); err != nil {
			panic(err)
		}
		db, err := Build(store, BuildOptions{})
		if err != nil {
			panic(err)
		}
		smallDB = db
	})
	return smallWorld, smallDB
}

func TestBuildTablesPopulated(t *testing.T) {
	_, g := testDB(t)
	for _, table := range []string{
		"city_points", "city_polygons", "phys_nodes", "std_paths",
		"sub_cables", "land_points", "asn_name", "asn_org", "asn_conn",
		"asn_loc", "ixps", "ixp_prefixes", "rdns", "anchors",
	} {
		tb := g.Rel.Table(table)
		if tb == nil {
			t.Fatalf("table %s missing", table)
		}
		if tb.Len() == 0 {
			t.Errorf("table %s is empty", table)
		}
	}
}

func TestCityPointsMatchWorld(t *testing.T) {
	w, g := testDB(t)
	if len(g.Cities) != len(w.Cities) {
		t.Fatalf("standard cities = %d, want %d", len(g.Cities), len(w.Cities))
	}
	rows := g.Rel.MustQuery(`SELECT COUNT(*) FROM city_points`)
	if n, _ := rows.Rows[0][0].AsInt(); int(n) != len(w.Cities) {
		t.Errorf("city_points rows = %d", n)
	}
}

func TestStandardizeRecoversTrueCity(t *testing.T) {
	w, g := testDB(t)
	// Jittered positions near each city must standardize back to it (the
	// Atlas export jitters by up to 10 km; cities are farther apart).
	hits := 0
	for i := 0; i < 100; i++ {
		c := w.Cities[(i*37)%len(w.Cities)]
		p := geo.Destination(c.Loc, float64(i*13%360), 3)
		idx := g.Standardize(p)
		if idx >= 0 && g.Cities[idx].Name == c.Name {
			hits++
		}
	}
	if hits < 95 {
		t.Errorf("standardization recovered %d/100 cities", hits)
	}
}

func TestVoronoiPolygonsStored(t *testing.T) {
	_, g := testDB(t)
	rows := g.Rel.MustQuery(`SELECT COUNT(*) FROM city_polygons`)
	n, _ := rows.Rows[0][0].AsInt()
	if int(n) < len(g.Cities)-5 { // duplicates may drop a cell
		t.Errorf("city_polygons rows = %d, want ~%d", n, len(g.Cities))
	}
	if g.Diagram == nil {
		t.Fatal("diagram not retained")
	}
}

func TestPhysNodesStandardized(t *testing.T) {
	_, g := testDB(t)
	// Every phys node's metro must be a real standard city (spot-check via
	// the consistency checker below, but also verify sources present).
	rows := g.Rel.MustQuery(`SELECT DISTINCT source FROM phys_nodes ORDER BY source`)
	if rows.Len() != 2 {
		t.Fatalf("phys_nodes sources = %d, want atlas + peeringdb", rows.Len())
	}
}

func TestStandardPathsFollowRightOfWay(t *testing.T) {
	w, g := testDB(t)
	rows := g.Rel.MustQuery(`SELECT from_metro, to_metro, distance_km, path_wkt FROM std_paths`)
	if rows.Len() == 0 {
		t.Fatal("no standard paths inferred")
	}
	for _, r := range rows.Rows[:min(rows.Len(), 50)] {
		km, _ := r[2].AsFloat()
		if km <= 0 {
			t.Fatal("standard path with non-positive length")
		}
	}
	_ = w
}

func TestStandardPathLongerThanGreatCircle(t *testing.T) {
	_, g := testDB(t)
	rows := g.Rel.MustQuery(`SELECT from_metro, from_state, from_country,
		to_metro, to_state, to_country, distance_km FROM std_paths LIMIT 100`)
	for _, r := range rows.Rows {
		fm, _ := r[0].AsText()
		fs, _ := r[1].AsText()
		fc, _ := r[2].AsText()
		tm, _ := r[3].AsText()
		ts, _ := r[4].AsText()
		tc, _ := r[5].AsText()
		km, _ := r[6].AsFloat()
		a := g.CityIndex(fm, fs, fc)
		b := g.CityIndex(tm, ts, tc)
		if a < 0 || b < 0 {
			t.Fatalf("std path references unknown city %s/%s", fm, tm)
		}
		direct := geo.Haversine(g.Cities[a].Loc, g.Cities[b].Loc)
		if km < direct-1 {
			t.Fatalf("conduit %s→%s shorter than great circle: %.1f < %.1f", fm, tm, km, direct)
		}
	}
}

func TestASNameInconsistencyPreserved(t *testing.T) {
	_, g := testDB(t)
	// §3.2: AS2686 keeps both its AS Rank and PeeringDB names.
	rows := g.Rel.MustQuery(`SELECT DISTINCT asn_name FROM asn_name WHERE asn = 2686 ORDER BY asn_name`)
	if rows.Len() < 2 {
		t.Fatalf("AS2686 has %d names, want >= 2", rows.Len())
	}
	rows = g.Rel.MustQuery(`SELECT DISTINCT organization FROM asn_org WHERE asn = 2686`)
	if rows.Len() < 3 {
		t.Errorf("AS2686 has %d org spellings, want >= 3 (asrank, peeringdb, pch... )", rows.Len())
	}
}

func TestRemotePeeringFlag(t *testing.T) {
	w, g := testDB(t)
	rows := g.Rel.MustQuery(`SELECT COUNT(*) FROM asn_loc WHERE remote`)
	flagged, _ := rows.Rows[0][0].AsInt()
	if flagged == 0 {
		t.Fatal("no remote peers flagged")
	}
	// Score the declarative remote classifier against ground truth.
	type key struct {
		asn  int
		city string
	}
	truth := map[key]bool{}
	for _, ix := range w.IXPs {
		for _, m := range ix.Members {
			truth[key{m.ASN, w.Cities[ix.City].Name}] = m.Remote
		}
	}
	res := g.Rel.MustQuery(`SELECT asn, metro, remote FROM asn_loc WHERE source = 'peeringdb-ix'`)
	correct, total := 0, 0
	for _, r := range res.Rows {
		asn64, _ := r[0].AsInt()
		metro, _ := r[1].AsText()
		rem, _ := r[2].AsBool()
		want, ok := truth[key{int(asn64), metro}]
		if !ok {
			continue
		}
		total++
		if rem == want {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("no scored rows")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.75 {
		t.Errorf("remote-peering classifier accuracy %.2f, want >= 0.75", acc)
	}
}

func TestGeoDistSQLFunction(t *testing.T) {
	_, g := testDB(t)
	rows := g.Rel.MustQuery(`SELECT GEO_DIST(-3.7038, 40.4168, 13.405, 52.52)`)
	d, _ := rows.Rows[0][0].AsFloat()
	if math.Abs(d-1869) > 20 {
		t.Errorf("GEO_DIST Madrid-Berlin = %.0f, want ~1869", d)
	}
	rows = g.Rel.MustQuery(`SELECT METRO_DIST('Madrid-ES', 'Berlin-DE')`)
	d, _ = rows.Rows[0][0].AsFloat()
	if math.Abs(d-1869) > 20 {
		t.Errorf("METRO_DIST = %.0f, want ~1869", d)
	}
}

func TestConsistencyCheckPasses(t *testing.T) {
	_, g := testDB(t)
	rep := g.ConsistencyCheck()
	if !rep.OK() {
		t.Fatalf("consistency violations (%d checked):\n%v", rep.Checked, rep.Violations)
	}
	if rep.Checked == 0 {
		t.Fatal("checker audited nothing")
	}
}

func TestConsistencyCheckCatchesCorruption(t *testing.T) {
	w, _ := testDB(t)
	// Build a private DB and corrupt it.
	store := ingest.NewStore("")
	if err := ingest.Collect(w, store, time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	g, err := Build(store, BuildOptions{SkipPolygons: true})
	if err != nil {
		t.Fatal(err)
	}
	g.Rel.MustExec(`INSERT INTO asn_loc (asn, metro, state_province, country, source, remote, as_of_date)
		VALUES (174, 'Nowhereville', '', 'XX', 'test', FALSE, '2026-07-02')`)
	rep := g.ConsistencyCheck()
	if rep.OK() {
		t.Fatal("checker missed a bogus metro")
	}
}

func TestPathNetworkShortestPractical(t *testing.T) {
	_, g := testDB(t)
	if g.Paths == nil || g.Paths.G.NumEdges() == 0 {
		t.Fatal("path network empty")
	}
	// Pick any stored edge and verify the network agrees.
	rows := g.Rel.MustQuery(`SELECT from_metro, from_state, from_country,
		to_metro, to_state, to_country, distance_km FROM std_paths LIMIT 1`)
	r := rows.Rows[0]
	fm, _ := r[0].AsText()
	fs, _ := r[1].AsText()
	fc, _ := r[2].AsText()
	tm, _ := r[3].AsText()
	ts, _ := r[4].AsText()
	tc, _ := r[5].AsText()
	a := g.CityIndex(fm, fs, fc)
	b := g.CityIndex(tm, ts, tc)
	if !g.Paths.HasEdge(a, b) {
		t.Fatal("stored path missing from network")
	}
	cities, km, ok := g.Paths.ShortestPracticalPath(a, b)
	if !ok || len(cities) < 2 || km <= 0 {
		t.Fatalf("shortest practical path failed: %v %v %v", cities, km, ok)
	}
	geom := g.Paths.RouteGeometry(cities)
	if len(geom) < 2 {
		t.Fatal("route geometry empty")
	}
}

func TestBuildAsOfSelectsSnapshot(t *testing.T) {
	w, _ := testDB(t)
	store := ingest.NewStore("")
	d1 := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	d2 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	if err := ingest.Collect(w, store, d1); err != nil {
		t.Fatal(err)
	}
	if err := ingest.Collect(w, store, d2); err != nil {
		t.Fatal(err)
	}
	g, err := Build(store, BuildOptions{AsOf: d1.Add(time.Hour), SkipPolygons: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := g.Rel.MustQuery(`SELECT DISTINCT as_of_date FROM city_points`)
	if rows.Len() != 1 {
		t.Fatalf("expected one as_of_date, got %d", rows.Len())
	}
	if s, _ := rows.Rows[0][0].AsText(); s != "2026-06-01" {
		t.Errorf("as_of_date = %s, want 2026-06-01", s)
	}
}

func TestCityByNameResolution(t *testing.T) {
	_, g := testDB(t)
	if g.CityByName("Madrid", "", "ES") < 0 {
		t.Error("Madrid-ES unresolved")
	}
	if g.CityByName("madrid", "", "") < 0 {
		t.Error("case-insensitive bare name unresolved")
	}
	if g.CityByName("NoSuchCity", "", "") != -1 {
		t.Error("unknown city should be -1")
	}
	if g.MetroIndex("Berlin-DE") < 0 {
		t.Error("metro label unresolved")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
