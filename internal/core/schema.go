package core

// SchemaDDL is the canonical iGDB schema: every Figure 2 relation plus the
// operational relations (source_status, build_trace) and the what-if
// simulation results (scenario_runs, scenario_impacts, filled by
// internal/simulate) and their indexes, as executable DDL. It is the single
// source of truth: Build executes exactly these statements, and
// cmd/igdblint's sqlcheck analyzer runs every SQL literal in the repository
// in an empty reldb database made from them. as_of_date is mandatory on
// all paper relations (§3's snapshot semantics).
var SchemaDDL = []string{
	`CREATE TABLE city_points (city TEXT, state_province TEXT, country TEXT,
		longitude REAL, latitude REAL, population INTEGER, as_of_date TEXT)`,
	`CREATE TABLE city_polygons (city TEXT, state_province TEXT, country TEXT,
		geom TEXT, as_of_date TEXT)`,
	`CREATE TABLE phys_nodes (node_name TEXT, organization TEXT, metro TEXT,
		state_province TEXT, country TEXT, latitude REAL, longitude REAL,
		source TEXT, as_of_date TEXT)`,
	`CREATE TABLE std_paths (from_metro TEXT, from_state TEXT, from_country TEXT,
		to_metro TEXT, to_state TEXT, to_country TEXT, distance_km REAL,
		path_wkt TEXT, as_of_date TEXT)`,
	`CREATE TABLE sub_cables (cable_id INTEGER, cable_name TEXT, length_km REAL,
		cable_wkt TEXT, as_of_date TEXT)`,
	`CREATE TABLE land_points (cable_id INTEGER, city TEXT, state_province TEXT,
		country TEXT, latitude REAL, longitude REAL, as_of_date TEXT)`,
	`CREATE TABLE asn_name (asn INTEGER, asn_name TEXT, source TEXT, as_of_date TEXT)`,
	`CREATE TABLE asn_org (asn INTEGER, organization TEXT, source TEXT, as_of_date TEXT)`,
	`CREATE TABLE asn_conn (from_asn INTEGER, to_asn INTEGER, rel INTEGER, as_of_date TEXT)`,
	`CREATE TABLE asn_loc (asn INTEGER, metro TEXT, state_province TEXT,
		country TEXT, source TEXT, remote BOOLEAN, as_of_date TEXT)`,
	`CREATE TABLE ixps (ixp_name TEXT, metro TEXT, country TEXT, source TEXT, as_of_date TEXT)`,
	`CREATE TABLE ixp_prefixes (ixp_name TEXT, prefix TEXT, source TEXT, as_of_date TEXT)`,
	`CREATE TABLE rdns (ip TEXT, hostname TEXT, as_of_date TEXT)`,
	`CREATE TABLE anchors (anchor_id INTEGER, ip TEXT, asn INTEGER,
		metro TEXT, state_province TEXT, country TEXT, latitude REAL,
		longitude REAL, as_of_date TEXT)`,
	`CREATE TABLE ip_asn_dns (ip TEXT, asn INTEGER, hostname TEXT, metro TEXT,
		state_province TEXT, country TEXT, geo_source TEXT, as_of_date TEXT)`,
	`CREATE TABLE source_status (source TEXT, status TEXT, error TEXT,
		rows_loaded INTEGER, load_ms REAL, as_of_date TEXT)`,
	`CREATE TABLE build_trace (span TEXT, parent TEXT, depth INTEGER,
		start_ms REAL, duration_ms REAL, attrs TEXT)`,
	`CREATE TABLE scenario_runs (scenario_id INTEGER, kind TEXT, target TEXT,
		seed INTEGER, failed_nodes INTEGER, failed_edges INTEGER,
		pairs_total INTEGER, pairs_lost INTEGER, reachability_loss REAL,
		mean_inflation REAL, max_inflation REAL, components_base INTEGER,
		components INTEGER, as_of_date TEXT)`,
	`CREATE TABLE scenario_impacts (scenario_id INTEGER, impact TEXT,
		name TEXT, lost_pairs INTEGER, rank INTEGER, as_of_date TEXT)`,
	`CREATE INDEX ON asn_loc (asn)`,
	`CREATE INDEX ON asn_name (asn)`,
	`CREATE INDEX ON asn_org (asn)`,
	`CREATE INDEX ON phys_nodes (metro)`,
	`CREATE INDEX ON rdns (ip)`,
	`CREATE INDEX ON scenario_runs (scenario_id)`,
	`CREATE INDEX ON scenario_impacts (scenario_id)`,
}
