package core

import (
	"testing"

	"igdb/internal/reldb"
)

// TestSchemaCoreRelationsPresent executes SchemaDDL in a fresh database and
// pins the paper's Figure 2 relations, so a refactor cannot silently drop
// one.
func TestSchemaCoreRelationsPresent(t *testing.T) {
	db := reldb.New()
	for _, ddl := range SchemaDDL {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatalf("SchemaDDL statement failed: %v\n  in: %s", err, ddl)
		}
	}
	for _, want := range []string{
		"city_points", "city_polygons", "phys_nodes", "std_paths",
		"sub_cables", "land_points", "asn_name", "asn_org", "asn_conn",
		"asn_loc", "ixps", "ixp_prefixes", "rdns", "anchors", "ip_asn_dns",
		"source_status", "build_trace",
	} {
		if db.Table(want) == nil {
			t.Errorf("schema missing relation %q", want)
		}
	}
	if loc := db.Table("asn_loc"); loc == nil || loc.ColumnIndex("metro") < 0 || loc.ColumnIndex("asn") < 0 {
		t.Errorf("asn_loc lacks its asn and metro columns")
	}
}
