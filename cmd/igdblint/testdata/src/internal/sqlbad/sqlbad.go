// Package sqlbad is igdblint golden-corpus input: SQL that fails to parse
// or that reldb rejects when it runs against the canonical internal/core
// schema.
package sqlbad

import "igdb/internal/reldb"

// brokenSQL fails to parse; harvested through the *SQL naming convention.
const brokenSQL = "SELECT FROM phys_nodes" // want `sqlcheck: parse error`

// driftedSQL parses but names a column the canonical schema does not have.
const driftedSQL = "SELECT p.node_name, p.altitude FROM phys_nodes p" // want `sqlcheck: no column p.altitude`

func badColumn(db *reldb.DB) *reldb.Rows {
	// Entry-point harvesting: the literal goes straight to a reldb call.
	return db.MustQuery("SELECT whereabouts FROM ixps") // want `sqlcheck: no column "whereabouts"`
}

func badTable(db *reldb.DB) (int, error) {
	return db.Exec("DELETE FROM no_such_table") // want `sqlcheck: no such table "no_such_table"`
}

func localTable(db *reldb.DB) {
	// A harvested CREATE TABLE extends the schema for this lint run, so
	// queries against run-local tables validate cleanly.
	db.MustExec("CREATE TABLE scratch (k TEXT, v TEXT)")
	db.MustExec("INSERT INTO scratch VALUES ('a', 'b')")
	db.MustQuery("SELECT k, v FROM scratch")
	// A CREATE TABLE runs in a database with no tables, so creating a
	// table SchemaDDL also creates is no finding; its own columns are
	// still checked.
	db.MustExec("CREATE TABLE rdns (ip TEXT, hostname TEXT, as_of_date TEXT)")
	db.MustExec("CREATE TABLE pair (k TEXT, k TEXT)") // want `sqlcheck: duplicate column "k" in table "pair"`
}

// Each of these parses and names only columns the schema has, yet reldb
// rejects it on every execution: a select-list alias is visible only to
// ORDER BY, an aggregate only to the select list, HAVING and ORDER BY, and
// only COUNT takes *.
func boundOnlyByTheEngine(db *reldb.DB) {
	db.MustQuery("SELECT asn AS a FROM asn_loc WHERE a = 1")                                // want `sqlcheck: no column "a"`
	db.MustQuery("SELECT metro AS m, COUNT(*) FROM asn_loc GROUP BY m")                     // want `sqlcheck: no column "m"`
	db.MustQuery("SELECT COUNT(*) AS c, metro FROM asn_loc GROUP BY metro HAVING c > 1")    // want `sqlcheck: no column "c"`
	db.MustQuery("SELECT metro FROM asn_loc WHERE COUNT(*) > 1")                            // want `sqlcheck: aggregates are not allowed in WHERE`
	db.MustQuery("SELECT SUM(*) FROM asn_loc")                                              // want `sqlcheck: SUM(*) is not valid`
	db.MustQuery("SELECT asn FROM asn_loc ORDER BY 1")                                      // an ordinal: clean
	db.MustQuery("SELECT COUNT(*) AS c, metro FROM asn_loc GROUP BY metro ORDER BY c DESC") // an alias in ORDER BY: clean
}

// Each statement below names something the schema lacks or misuses one it
// has.
func drift(db *reldb.DB) {
	db.MustQuery("SELECT x.asn FROM asn_loc l")                                // want `sqlcheck: no column x.asn`
	db.MustQuery("SELECT z.* FROM asn_loc l")                                  // want `sqlcheck: no table "z" for z.*`
	db.MustQuery("SELECT asn FROM asn_loc l JOIN asn_name n ON n.asn = l.asn") // want `sqlcheck: ambiguous column "asn"`
	db.MustExec("INSERT INTO asn_name (asn, nam) VALUES (1, 'x')")             // want `sqlcheck: no column "nam" in table "asn_name"`
	db.MustExec("INSERT INTO asn_name VALUES (1)")                             // want `sqlcheck: INSERT expects 4 values, got 1`
	db.MustExec("UPDATE asn_loc SET metroo = 'x'")                             // want `sqlcheck: no column "metroo" in table "asn_loc"`
	db.MustExec("DROP TABLE nope")                                             // want `sqlcheck: no such table "nope"`
	db.MustExec("CREATE INDEX ON asn_loc (nope)")                              // want `sqlcheck: no column "nope" in table "asn_loc"`
	db.MustQuery("SELECT metro")                                               // want `sqlcheck: no column "metro"`
	db.MustQuery("EXPLAIN SELECT nope FROM asn_loc")                           // want `sqlcheck: no column "nope"`
}

// A plain EXPLAIN of a write resolves its table, columns, arity and
// expressions as running the write would, so each of these fails too.
func explainDrift(db *reldb.DB) {
	db.MustQuery("EXPLAIN DELETE FROM nope")                       // want `sqlcheck: no such table "nope"`
	db.MustQuery("EXPLAIN UPDATE nope SET x = 1")                  // want `sqlcheck: no such table "nope"`
	db.MustQuery("EXPLAIN INSERT INTO nope VALUES (1)")            // want `sqlcheck: no such table "nope"`
	db.MustQuery("EXPLAIN UPDATE asn_loc SET zz = 1")              // want `sqlcheck: no column "zz" in table "asn_loc"`
	db.MustQuery("EXPLAIN INSERT INTO asn_loc (zz) VALUES (1)")    // want `sqlcheck: no column "zz" in table "asn_loc"`
	db.MustQuery("EXPLAIN INSERT INTO asn_name VALUES (1)")        // want `sqlcheck: INSERT expects 4 values, got 1`
	db.MustQuery("EXPLAIN DELETE FROM asn_loc WHERE metroo = 'x'") // want `sqlcheck: no column "metroo"`
	db.MustQuery("EXPLAIN UPDATE asn_loc SET metro = metroo")      // want `sqlcheck: no column "metroo"`
	db.MustQuery("EXPLAIN DELETE FROM asn_loc WHERE asn = 1")      // clean
}

// Each statement runs in its own database, so a write checks only itself:
// the DROP does not hide asn_loc from the SELECT after it.
func isolated(db *reldb.DB) {
	db.MustExec("DROP TABLE asn_loc")
	db.MustQuery("SELECT asn FROM asn_loc")
}

// The corpus exists to be linted, not linked into a program; these
// references keep the callgraph analyzer's dead-code rule from
// drowning the package's own golden findings.
var _ = []any{badColumn, badTable, localTable, boundOnlyByTheEngine, drift, explainDrift, isolated}
