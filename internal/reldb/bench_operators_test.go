package reldb

import (
	"fmt"
	"testing"
)

// benchOpDB builds worldgen-scale synthetic tables: facts (one row per
// AS-presence observation) and dim (one row per AS), the shape the iGDB
// standardization joins take.
func benchOpDB(tb testing.TB, factRows, dimRows int) *DB {
	tb.Helper()
	db := New()
	db.MustExec(`CREATE TABLE facts (asn INTEGER, country TEXT, metro TEXT, v REAL)`)
	db.MustExec(`CREATE TABLE dim (asn INTEGER, org TEXT)`)
	facts := make([][]Value, 0, factRows)
	for i := 0; i < factRows; i++ {
		asn := i % dimRows
		facts = append(facts, []Value{
			Int(int64(asn)),
			Text(fmt.Sprintf("C%d", asn%40)),
			Text(fmt.Sprintf("M%d", i%97)),
			Float(float64(i%1000) / 1000.0),
		})
	}
	if err := db.BulkInsert("facts", facts); err != nil {
		tb.Fatal(err)
	}
	dims := make([][]Value, 0, dimRows)
	for i := 0; i < dimRows; i++ {
		dims = append(dims, []Value{Int(int64(i)), Text(fmt.Sprintf("ORG%d", i))})
	}
	if err := db.BulkInsert("dim", dims); err != nil {
		tb.Fatal(err)
	}
	return db
}

// operatorCase isolates one plan operator over the benchOpDB tables.
type operatorCase struct {
	name string
	db   *DB
	sql  string
	rows int // input rows the measured operator consumes per execution
	// maxAllocs is the per-execution allocation budget: the count measured
	// on amd64 plus a margin far below one allocation per input row, so a
	// new per-row allocation anywhere in the executor fails it.
	maxAllocs float64
}

// operatorCases are the BenchmarkOperators queries with their budgets.
// The index cases run on their own copies of the tables, indexed, so the
// others read and build as they would without indexes.
func operatorCases(tb testing.TB) []operatorCase {
	const factRows, dimRows = 20000, 2000
	db := benchOpDB(tb, factRows, dimRows)
	small := benchOpDB(tb, 200, 200)
	factsByASN := benchOpDB(tb, factRows, dimRows)
	factsByASN.MustExec(`CREATE INDEX ON facts (asn)`)
	dimByASN := benchOpDB(tb, factRows, dimRows)
	dimByASN.MustExec(`CREATE INDEX ON dim (asn)`)
	named := benchOpDB(tb, factRows, dimRows)
	named.MustExec(`CREATE TABLE names (asn INTEGER, name TEXT, source TEXT)`)
	names := make([][]Value, 0, 2*dimRows)
	for i := 0; i < dimRows; i++ {
		names = append(names,
			[]Value{Int(int64(i)), Text(fmt.Sprintf("AS%d", i)), Text("asrank")},
			[]Value{Int(int64(i)), Text(fmt.Sprintf("ORG%d", i)), Text("peeringdb")})
	}
	if err := named.BulkInsert("names", names); err != nil {
		tb.Fatal(err)
	}
	return []operatorCase{
		{"Scan", db, `SELECT asn FROM facts`, factRows, 40},
		{"Filter", db, `SELECT asn FROM facts WHERE v < 0.1 AND country != 'C0'`, factRows, 60},
		{"HashJoin", db, `SELECT f.asn FROM facts f JOIN dim d ON d.asn = f.asn`, factRows, 4200},
		{"NestedLoopJoin", small, `SELECT f.asn FROM facts f JOIN dim d ON d.asn < f.asn LIMIT 100000`, 200 * 200, 200},
		{"Group", db, `SELECT country, COUNT(*), AVG(v) FROM facts GROUP BY country`, factRows, 300},
		{"Sort", db, `SELECT asn FROM facts ORDER BY v DESC`, factRows, 40},
		{"IndexLookup", factsByASN, `SELECT asn FROM facts WHERE asn = 7`, factRows / dimRows, 40},
		{"IndexJoin", dimByASN, `SELECT f.asn FROM facts f JOIN dim d ON d.asn = f.asn`, factRows, 200},
		// Table 2's shape: two filtered equi-joins, then grouping, a
		// DISTINCT count, ORDER BY an aggregate's alias and LIMIT.
		{"GroupJoinOrder", named, `SELECT f.asn, MIN(n.name) AS name, MIN(o.name) AS org, COUNT(DISTINCT f.metro) AS metros
			FROM facts f
			JOIN names n ON n.asn = f.asn AND n.source = 'asrank'
			JOIN names o ON o.asn = f.asn AND o.source = 'peeringdb'
			GROUP BY f.asn ORDER BY metros DESC, f.asn LIMIT 11`, factRows, 42400},
	}
}

// TestOperatorAllocBudgets holds each BenchmarkOperators query, plus one
// DISTINCT and three self-joins, to its allocation budget. No joined row
// is allocated: a join writes into one reused row. Measured counts: Scan
// 22, Filter 49 (1,940 output rows), HashJoin 4,073 (its hash table of
// 2,000 keys), NestedLoopJoin 61, Group 100, Sort 26, IndexLookup 35 (a
// bucket of 10 rows), IndexJoin 63 (HashJoin without its hash table),
// GroupJoinOrder 40,206 (two hash tables, and per group its key and its
// DISTINCT set of 10 keys), Distinct 129, JoinCount 43, JoinKeepsNothing
// 48, JoinLimit 36. -race adds 2,000 to GroupJoinOrder, 40 to Group and at
// most one elsewhere.
func TestOperatorAllocBudgets(t *testing.T) {
	cases := operatorCases(t)
	cases = append(cases, operatorCase{"Distinct", cases[0].db, `SELECT DISTINCT country FROM facts`, 20000, 200})
	// Three self-joins of 2,000 integers that each return one row: what a
	// statement holds follows its answer, not the pairs it probes.
	keys := New()
	keys.MustExec(`CREATE TABLE t (k INTEGER)`)
	ks := make([][]Value, 2000)
	for i := range ks {
		ks[i] = []Value{Int(int64(i))}
	}
	if err := keys.BulkInsert("t", ks); err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		operatorCase{"JoinCount", keys, `SELECT COUNT(*) FROM t a JOIN t b ON a.k < b.k`, 2000 * 2000, 200},
		operatorCase{"JoinKeepsNothing", keys, `SELECT COUNT(*) FROM t a JOIN t b ON a.k + b.k = -1`, 2000 * 2000, 200},
		operatorCase{"JoinLimit", keys, `SELECT a.k FROM t a JOIN t b ON a.k < b.k LIMIT 1`, 2, 200})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stmt, err := c.db.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := stmt.Query(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.maxAllocs {
				t.Errorf("%.0f allocations per query over %d input rows; budget %.0f", allocs, c.rows, c.maxAllocs)
			}
		})
	}
}

// BenchmarkOperators tracks per-operator executor throughput: each
// sub-benchmark isolates one plan operator over the worldgen-scale tables
// and reports input rows/s alongside ns/op.
func BenchmarkOperators(b *testing.B) {
	for _, c := range operatorCases(b) {
		b.Run(c.name, func(b *testing.B) {
			stmt, err := c.db.Prepare(c.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Query(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkExplainOverhead bounds what EXPLAIN support costs the plain
// query path, which keeps the pipeline's counts and reads no clock, and
// what ANALYZE adds when requested.
func BenchmarkExplainOverhead(b *testing.B) {
	db := benchOpDB(b, 20000, 2000)
	const sql = `SELECT f.country, COUNT(*) AS n FROM facts f JOIN dim d ON d.asn = f.asn GROUP BY f.country ORDER BY n DESC LIMIT 10`
	b.Run("PlainQuery", func(b *testing.B) {
		stmt, err := db.Prepare(sql)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExplainAnalyze", func(b *testing.B) {
		stmt, err := db.Prepare("EXPLAIN ANALYZE " + sql)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Explain(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
