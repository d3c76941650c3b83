package core

import (
	"fmt"
	"time"

	"igdb/internal/geo"
	"igdb/internal/reldb"
	"igdb/internal/spatial"
)

// FromRelations reconstructs a servable IGDB from its relations alone — the
// follower side of snapshot replication. The leader ships the built reldb
// tables (not the raw source snapshots), so a follower never re-runs the
// build pipeline; everything the serving layer needs beyond SQL is derived
// back out of the relations the build pipeline originally wrote:
//
//   - Cities, the city index, and the k-d tree from city_points (the §3.1
//     gazetteer is its own relation, so standardization survives the trip)
//   - the inferred-physical-path network from std_paths (same reconstruction
//     Build itself uses)
//   - per-source provenance from source_status
//
// The Thiessen diagram, right-of-way network, and build trace are
// build-time artifacts with no serving-path consumers; they stay nil.
// Geographic SQL functions (GEO_DIST, METRO_DIST) are re-registered against
// the reconstructed gazetteer.
func FromRelations(db *reldb.DB, asOf time.Time) (*IGDB, error) {
	g := &IGDB{
		Rel:     db,
		AsOf:    asOf,
		cityIdx: make(map[string]int),
		tree:    spatial.NewKDTree(nil),
	}
	if err := g.loadCitiesFromRelation(); err != nil {
		return nil, fmt.Errorf("core: from relations: %w", err)
	}
	if err := g.loadSourceStatusFromRelation(); err != nil {
		return nil, fmt.Errorf("core: from relations: %w", err)
	}
	g.registerSQLFunctions()
	g.Paths = g.buildPathNetwork()
	return g, nil
}

// loadCitiesFromRelation rebuilds the gazetteer structures from city_points.
func (g *IGDB) loadCitiesFromRelation() error {
	t := g.Rel.Table("city_points")
	if t == nil {
		return fmt.Errorf("no city_points relation")
	}
	rows, err := g.Rel.Query(`SELECT city, state_province, country, longitude,
		latitude, population FROM city_points`)
	if err != nil {
		return err
	}
	entries := make([]spatial.Entry, 0, rows.Len())
	for _, r := range rows.Rows {
		name, _ := r[0].AsText()
		state, _ := r[1].AsText()
		country, _ := r[2].AsText()
		lon, _ := r[3].AsFloat()
		lat, _ := r[4].AsFloat()
		pop, _ := r[5].AsInt()
		idx := len(g.Cities)
		c := StandardCity{
			Name: name, State: state, Country: country,
			Loc: geo.Point{Lon: lon, Lat: lat}, Population: int(pop),
		}
		g.Cities = append(g.Cities, c)
		g.cityIdx[c.Key()] = idx
		entries = append(entries, spatial.Entry{P: c.Loc, ID: idx})
	}
	g.tree = spatial.NewKDTree(entries)
	return nil
}

// loadSourceStatusFromRelation rebuilds per-source provenance from the
// source_status relation so Degraded()/QuarantinedSources() — and therefore
// the follower's /healthz — report exactly what the leader's build saw.
func (g *IGDB) loadSourceStatusFromRelation() error {
	if g.Rel.Table("source_status") == nil {
		return nil // pre-provenance snapshot: nothing to restore
	}
	rows, err := g.Rel.Query(`SELECT source, status, error, rows_loaded,
		load_ms, as_of_date FROM source_status`)
	if err != nil {
		return err
	}
	for _, r := range rows.Rows {
		source, _ := r[0].AsText()
		status, _ := r[1].AsText()
		errText, _ := r[2].AsText()
		loaded, _ := r[3].AsInt()
		loadMs, _ := r[4].AsFloat()
		asOfText, _ := r[5].AsText()
		st := SourceStatus{
			Source: source, Status: status, Err: errText,
			RowsLoaded: int(loaded),
			LoadTime:   time.Duration(loadMs * float64(time.Millisecond)),
		}
		if asOfText != "" {
			if t, perr := time.Parse("2006-01-02", asOfText); perr == nil {
				st.AsOf = t
			}
		}
		g.SourceStatus = append(g.SourceStatus, st)
	}
	return nil
}
