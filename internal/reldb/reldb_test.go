package reldb

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// testDB builds a small two-table database used across tests.
func testDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE asn_name (asn INTEGER, asn_name TEXT, source TEXT)`)
	db.MustExec(`CREATE TABLE asn_loc (asn INTEGER, city TEXT, country TEXT, remote BOOLEAN, lat REAL)`)
	db.MustExec(`INSERT INTO asn_name (asn, asn_name, source) VALUES
		(174, 'COGENT-174', 'asrank'),
		(174, 'cogent', 'peeringdb'),
		(2686, 'ATGS-MMD-AS', 'asrank'),
		(2686, 'as-ignemea', 'peeringdb'),
		(13335, 'CLOUDFLARENET', 'asrank')`)
	db.MustExec(`INSERT INTO asn_loc (asn, city, country, remote, lat) VALUES
		(174, 'Paris', 'FR', FALSE, 48.85),
		(174, 'Atlanta', 'US', FALSE, 33.75),
		(2686, 'Amsterdam', 'NL', TRUE, 52.37),
		(13335, 'Paris', 'FR', FALSE, 48.85),
		(13335, 'Singapore', 'SG', FALSE, 1.35),
		(64512, 'Nowhere', 'XX', FALSE, 0.0)`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`SELECT asn, asn_name FROM asn_name WHERE source = 'asrank' ORDER BY asn`)
	if rows.Len() != 3 {
		t.Fatalf("got %d rows", rows.Len())
	}
	if v, _ := rows.Rows[0][0].AsInt(); v != 174 {
		t.Errorf("first asn = %v", rows.Rows[0][0])
	}
	if s, _ := rows.Rows[2][1].AsText(); s != "CLOUDFLARENET" {
		t.Errorf("last name = %v", rows.Rows[2][1])
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`SELECT * FROM asn_loc LIMIT 2`)
	if len(rows.Columns) != 5 || rows.Len() != 2 {
		t.Fatalf("columns=%v rows=%d", rows.Columns, rows.Len())
	}
	if rows.Col("country") != 2 {
		t.Errorf("country column at %d", rows.Col("country"))
	}
}

func TestQualifiedStar(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`SELECT n.* FROM asn_name n JOIN asn_loc l ON n.asn = l.asn LIMIT 1`)
	if len(rows.Columns) != 3 {
		t.Errorf("n.* should have 3 columns, got %v", rows.Columns)
	}
}

func TestWhereOperators(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{`asn = 174`, 2},
		{`asn != 174`, 4},
		{`asn <> 174`, 4},
		{`asn > 2686`, 3},
		{`asn >= 2686`, 4},
		{`lat < 10`, 2},
		{`lat <= 1.35`, 2},
		{`city LIKE 'P%'`, 2},
		{`city LIKE '%apore'`, 1},
		{`city LIKE '_aris'`, 2},
		{`city NOT LIKE 'P%'`, 4},
		{`country IN ('FR', 'SG')`, 3},
		{`country NOT IN ('FR', 'SG')`, 3},
		{`asn BETWEEN 174 AND 2686`, 3},
		{`asn NOT BETWEEN 174 AND 2686`, 3},
		{`remote = TRUE`, 1},
		{`NOT remote`, 5},
		{`country = 'FR' AND asn = 174`, 1},
		{`country = 'FR' OR country = 'SG'`, 3},
		{`lat BETWEEN 0 AND 90 AND (country = 'FR' OR remote)`, 3},
	}
	for _, c := range cases {
		rows := db.MustQuery(`SELECT * FROM asn_loc WHERE ` + c.where)
		if rows.Len() != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, rows.Len(), c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER, b TEXT)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, NULL)`)
	if got := db.MustQuery(`SELECT * FROM t WHERE a = NULL`).Len(); got != 0 {
		t.Errorf("= NULL matched %d rows, want 0", got)
	}
	if got := db.MustQuery(`SELECT * FROM t WHERE a IS NULL`).Len(); got != 1 {
		t.Errorf("IS NULL matched %d", got)
	}
	if got := db.MustQuery(`SELECT * FROM t WHERE a IS NOT NULL`).Len(); got != 2 {
		t.Errorf("IS NOT NULL matched %d", got)
	}
	// COUNT(col) skips NULLs, COUNT(*) does not.
	rows := db.MustQuery(`SELECT COUNT(*), COUNT(a), COUNT(b) FROM t`)
	star, _ := rows.Rows[0][0].AsInt()
	ca, _ := rows.Rows[0][1].AsInt()
	cb, _ := rows.Rows[0][2].AsInt()
	if star != 3 || ca != 2 || cb != 2 {
		t.Errorf("counts = %d,%d,%d want 3,2,2", star, ca, cb)
	}
	// NULL in IN list: unknown, not matched.
	if got := db.MustQuery(`SELECT * FROM t WHERE a IN (99, NULL)`).Len(); got != 0 {
		t.Errorf("IN with NULL matched %d", got)
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`
		SELECT country, COUNT(*) AS n, MIN(asn) AS lo, MAX(asn) AS hi
		FROM asn_loc GROUP BY country ORDER BY n DESC, country`)
	if rows.Len() != 5 {
		t.Fatalf("got %d groups", rows.Len())
	}
	// FR has 2 rows.
	first := rows.Rows[0]
	if s, _ := first[0].AsText(); s != "FR" {
		t.Errorf("top group = %v", first[0])
	}
	if n, _ := first[1].AsInt(); n != 2 {
		t.Errorf("FR count = %v", first[1])
	}
	if lo, _ := first[2].AsInt(); lo != 174 {
		t.Errorf("FR min asn = %v", first[2])
	}
	if hi, _ := first[3].AsInt(); hi != 13335 {
		t.Errorf("FR max asn = %v", first[3])
	}
}

func TestCountDistinct(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`SELECT COUNT(DISTINCT country) FROM asn_loc`)
	if n, _ := rows.Rows[0][0].AsInt(); n != 5 {
		t.Errorf("distinct countries = %v, want 5", n)
	}
	rows = db.MustQuery(`SELECT asn, COUNT(DISTINCT country) AS c FROM asn_loc GROUP BY asn ORDER BY c DESC LIMIT 1`)
	if n, _ := rows.Rows[0][1].AsInt(); n != 2 {
		t.Errorf("max countries per asn = %v, want 2", n)
	}
}

func TestSumAvg(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE v (g INTEGER, x INTEGER, f REAL)`)
	db.MustExec(`INSERT INTO v VALUES (0, 1, 0.5), (0, 2, 1.5), (0, 3, NULL),
		(1, 9007199254740992, NULL), (1, 1, NULL), (1, 1, NULL),
		(2, 4611686018427387904, NULL), (2, 4611686018427387904, NULL)`)
	for _, tc := range []struct {
		sql  string
		want []interface{} // Interface() of each value: int64 is INTEGER, float64 REAL
	}{
		{`SELECT SUM(x), AVG(x), SUM(f), AVG(f) FROM v WHERE g = 0`, []interface{}{int64(6), 2.0, 2.0, 1.0}},
		// Integers add exactly past 2^53, where float64 drops the 1s.
		{`SELECT SUM(x) FROM v WHERE g = 1`, []interface{}{int64(9007199254740994)}},
		// 2^62 + 2^62 overflows int64, so the sum is the float64 one, REAL.
		{`SELECT SUM(x), AVG(x) FROM v WHERE g = 2`, []interface{}{9223372036854775808.0, 4611686018427387904.0}},
	} {
		rows := db.MustQuery(tc.sql)
		var got []interface{}
		for _, v := range rows.Rows[0] {
			got = append(got, v.Interface())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s = %#v, want %#v", tc.sql, got, tc.want)
		}
	}
}

func TestEmptyAggregates(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE empty (x INTEGER)`)
	rows := db.MustQuery(`SELECT COUNT(*), SUM(x), MIN(x) FROM empty`)
	if rows.Len() != 1 {
		t.Fatal("aggregate over empty table must yield one row")
	}
	if n, _ := rows.Rows[0][0].AsInt(); n != 0 {
		t.Errorf("COUNT(*) = %v", rows.Rows[0][0])
	}
	if !rows.Rows[0][1].IsNull() || !rows.Rows[0][2].IsNull() {
		t.Error("SUM/MIN over empty set must be NULL")
	}
}

// A bare column beside an aggregate with no GROUP BY reads the first row
// of the one group, as it reads a GROUP BY group's, and NULL when there
// are no rows. Aggregates over a join that matches nothing are 0 and NULL.
func TestBareColumnInWholeTableAggregate(t *testing.T) {
	db := testDB(t)
	for _, tc := range []struct{ sql, want string }{
		{`SELECT asn, COUNT(*) FROM asn_loc`, "174 6"},
		{`SELECT asn, COUNT(*) FROM asn_loc WHERE asn = 0`, "NULL 0"},
		{`SELECT COUNT(*) FROM asn_loc WHERE asn = 0 ORDER BY city`, "0"},
		{`SELECT COUNT(*), MAX(l.lat) FROM asn_loc l JOIN asn_name n ON n.asn = l.asn + 1`, "0 NULL"},
	} {
		rows, err := db.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var got []string
		for _, v := range rows.Rows[0] {
			got = append(got, v.String())
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%s = %q, want %q", tc.sql, strings.Join(got, " "), tc.want)
		}
	}
}

func TestHaving(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`
		SELECT city, COUNT(*) AS n FROM asn_loc
		GROUP BY city HAVING COUNT(*) > 1`)
	if rows.Len() != 1 {
		t.Fatalf("got %d rows", rows.Len())
	}
	if s, _ := rows.Rows[0][0].AsText(); s != "Paris" {
		t.Errorf("city = %v", rows.Rows[0][0])
	}
}

func TestInnerJoin(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`
		SELECT n.asn_name, l.city FROM asn_name n
		JOIN asn_loc l ON n.asn = l.asn
		WHERE n.source = 'asrank' ORDER BY n.asn_name, l.city`)
	// 174→2 cities, 2686→1, 13335→2 = 5 rows
	if rows.Len() != 5 {
		t.Fatalf("got %d rows, want 5", rows.Len())
	}
	if s, _ := rows.Rows[0][0].AsText(); s != "ATGS-MMD-AS" {
		t.Errorf("first row name = %v", rows.Rows[0][0])
	}
}

func TestLeftJoin(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`
		SELECT l.asn, n.asn_name FROM asn_loc l
		LEFT JOIN asn_name n ON l.asn = n.asn AND n.source = 'asrank'
		WHERE l.city = 'Nowhere'`)
	if rows.Len() != 1 {
		t.Fatalf("got %d rows", rows.Len())
	}
	if !rows.Rows[0][1].IsNull() {
		t.Errorf("unmatched left join should have NULL name, got %v", rows.Rows[0][1])
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testDB(t)
	db.MustExec(`CREATE TABLE asn_org (asn INTEGER, org TEXT)`)
	db.MustExec(`INSERT INTO asn_org VALUES (174, 'Cogent Communications'), (13335, 'Cloudflare, Inc.')`)
	rows := db.MustQuery(`
		SELECT o.org, l.city, n.asn_name
		FROM asn_org o
		JOIN asn_loc l ON o.asn = l.asn
		JOIN asn_name n ON o.asn = n.asn
		WHERE n.source = 'peeringdb' ORDER BY o.org, l.city`)
	// cogent: 2 cities; cloudflare has no peeringdb name row => only cogent rows
	if rows.Len() != 2 {
		t.Fatalf("got %d rows, want 2", rows.Len())
	}
	if s, _ := rows.Rows[0][2].AsText(); s != "cogent" {
		t.Errorf("name = %v", rows.Rows[0][2])
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE a (x INTEGER)`)
	db.MustExec(`CREATE TABLE b (y INTEGER)`)
	db.MustExec(`INSERT INTO a VALUES (1), (2), (3)`)
	db.MustExec(`INSERT INTO b VALUES (2), (3)`)
	rows := db.MustQuery(`SELECT a.x, b.y FROM a JOIN b ON a.x < b.y ORDER BY a.x, b.y`)
	// pairs: (1,2),(1,3),(2,3)
	if rows.Len() != 3 {
		t.Fatalf("got %d rows, want 3", rows.Len())
	}
}

func TestCrossJoin(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE a (x INTEGER)`)
	db.MustExec(`CREATE TABLE b (y INTEGER)`)
	db.MustExec(`INSERT INTO a VALUES (1), (2)`)
	db.MustExec(`INSERT INTO b VALUES (10), (20), (30)`)
	rows := db.MustQuery(`SELECT x, y FROM a CROSS JOIN b`)
	if rows.Len() != 6 {
		t.Fatalf("cross join gave %d rows, want 6", rows.Len())
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`SELECT DISTINCT country FROM asn_loc ORDER BY country`)
	if rows.Len() != 5 {
		t.Errorf("distinct countries = %d", rows.Len())
	}
}

func TestOrderByDescAndOrdinal(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery(`SELECT asn, city FROM asn_loc ORDER BY 1 DESC, 2 ASC LIMIT 3`)
	if n, _ := rows.Rows[0][0].AsInt(); n != 64512 {
		t.Errorf("first = %v", rows.Rows[0][0])
	}
	// ORDER BY alias.
	rows = db.MustQuery(`SELECT asn AS a FROM asn_loc ORDER BY a LIMIT 1`)
	if n, _ := rows.Rows[0][0].AsInt(); n != 174 {
		t.Errorf("alias order first = %v", rows.Rows[0][0])
	}
}

func TestLimitOffset(t *testing.T) {
	db := testDB(t)
	all := db.MustQuery(`SELECT asn FROM asn_loc ORDER BY asn`)
	page := db.MustQuery(`SELECT asn FROM asn_loc ORDER BY asn LIMIT 2 OFFSET 2`)
	if page.Len() != 2 {
		t.Fatalf("page len %d", page.Len())
	}
	if !Equal(page.Rows[0][0], all.Rows[2][0]) {
		t.Error("offset skipped wrong rows")
	}
	// Offset beyond end.
	if got := db.MustQuery(`SELECT asn FROM asn_loc LIMIT 5 OFFSET 100`).Len(); got != 0 {
		t.Errorf("offset past end gave %d rows", got)
	}
}

func TestExpressionSelect(t *testing.T) {
	db := New()
	rows := db.MustQuery(`SELECT 1 + 2 * 3 AS v, 'a' || 'b' AS s, 10 / 4, 10.0 / 4`)
	if n, _ := rows.Rows[0][0].AsInt(); n != 7 {
		t.Errorf("1+2*3 = %v", rows.Rows[0][0])
	}
	if s, _ := rows.Rows[0][1].AsText(); s != "ab" {
		t.Errorf("concat = %v", rows.Rows[0][1])
	}
	if n, _ := rows.Rows[0][2].AsInt(); n != 2 {
		t.Errorf("int div = %v", rows.Rows[0][2])
	}
	if f, _ := rows.Rows[0][3].AsFloat(); f != 2.5 {
		t.Errorf("float div = %v", rows.Rows[0][3])
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	db := New()
	rows := db.MustQuery(`SELECT 1 / 0, 1.0 / 0`)
	if !rows.Rows[0][0].IsNull() || !rows.Rows[0][1].IsNull() {
		t.Error("division by zero should be NULL")
	}
}

func TestScalarFunctions(t *testing.T) {
	db := New()
	rows := db.MustQuery(`SELECT UPPER('abc'), LOWER('ABC'), LENGTH('hello'),
		SUBSTR('hostname', 1, 4), ABS(-5), ROUND(3.14159, 2), COALESCE(NULL, NULL, 7), IIF(1 > 0, 'y', 'n')`)
	r := rows.Rows[0]
	checks := []string{"ABC", "abc", "5", "host", "5", "3.14", "7", "y"}
	for i, want := range checks {
		if s, _ := r[i].AsText(); s != want {
			t.Errorf("func %d = %q, want %q", i, s, want)
		}
	}
}

func TestRegisterFunc(t *testing.T) {
	db := New()
	db.RegisterFunc("double", func(args []Value) (Value, error) {
		n, _ := args[0].AsInt()
		return Int(n * 2), nil
	})
	rows := db.MustQuery(`SELECT DOUBLE(21)`)
	if n, _ := rows.Rows[0][0].AsInt(); n != 42 {
		t.Errorf("custom func = %v", rows.Rows[0][0])
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec(`DELETE FROM asn_loc WHERE country = 'XX'`)
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if got := db.MustQuery(`SELECT * FROM asn_loc`).Len(); got != 5 {
		t.Errorf("rows after delete = %d", got)
	}
	n, err = db.Exec(`UPDATE asn_loc SET remote = TRUE WHERE country = 'FR'`)
	if err != nil || n != 2 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	if got := db.MustQuery(`SELECT * FROM asn_loc WHERE remote`).Len(); got != 3 {
		t.Errorf("remote rows = %d", got)
	}
}

func TestDropTable(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`DROP TABLE asn_name`); err != nil {
		t.Fatal(err)
	}
	if db.Table("asn_name") != nil {
		t.Error("table should be gone")
	}
	if _, err := db.Exec(`DROP TABLE asn_name`); err == nil {
		t.Error("double drop should fail")
	}
	if _, err := db.Exec(`DROP TABLE IF EXISTS asn_name`); err != nil {
		t.Errorf("IF EXISTS should be quiet: %v", err)
	}
}

func TestIndexedJoinMatchesUnindexed(t *testing.T) {
	db := testDB(t)
	before := db.MustQuery(`SELECT n.asn_name, l.city FROM asn_name n JOIN asn_loc l ON n.asn = l.asn ORDER BY 1, 2`)
	db.MustExec(`CREATE INDEX ON asn_loc (asn)`)
	after := db.MustQuery(`SELECT n.asn_name, l.city FROM asn_name n JOIN asn_loc l ON n.asn = l.asn ORDER BY 1, 2`)
	if before.Len() != after.Len() {
		t.Fatalf("index changed results: %d vs %d", before.Len(), after.Len())
	}
	for i := range before.Rows {
		for j := range before.Rows[i] {
			if !Equal(before.Rows[i][j], after.Rows[i][j]) {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

func TestBulkInsert(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER, b TEXT)`)
	err := db.BulkInsert("t", [][]Value{
		{Int(1), Text("x")},
		{Int(2), Text("y")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.MustQuery(`SELECT COUNT(*) FROM t`); mustInt(got.Rows[0][0]) != 2 {
		t.Error("bulk insert lost rows")
	}
	if err := db.BulkInsert("t", [][]Value{{Int(1)}}); err == nil {
		t.Error("width mismatch should error")
	}
	if err := db.BulkInsert("missing", nil); err == nil {
		t.Error("missing table should error")
	}
}

func mustInt(v Value) int64 {
	n, _ := v.AsInt()
	return n
}

func TestInsertColumnSubset(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER, b TEXT, c REAL)`)
	db.MustExec(`INSERT INTO t (b) VALUES ('only-b')`)
	rows := db.MustQuery(`SELECT a, b, c FROM t`)
	if !rows.Rows[0][0].IsNull() || !rows.Rows[0][2].IsNull() {
		t.Error("unspecified columns should be NULL")
	}
	if s, _ := rows.Rows[0][1].AsText(); s != "only-b" {
		t.Errorf("b = %v", rows.Rows[0][1])
	}
}

func TestTypeCoercion(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER, b REAL, c TEXT, d BOOLEAN)`)
	db.MustExec(`INSERT INTO t VALUES ('42', 7, 99, 1)`)
	rows := db.MustQuery(`SELECT a, b, c, d FROM t`)
	if n, _ := rows.Rows[0][0].AsInt(); n != 42 {
		t.Errorf("text→int coercion failed: %v", rows.Rows[0][0])
	}
	if f, _ := rows.Rows[0][1].AsFloat(); f != 7 {
		t.Errorf("int→real failed: %v", rows.Rows[0][1])
	}
	if s, _ := rows.Rows[0][2].AsText(); s != "99" {
		t.Errorf("int→text failed: %v", rows.Rows[0][2])
	}
	if b, _ := rows.Rows[0][3].AsBool(); !b {
		t.Errorf("int→bool failed: %v", rows.Rows[0][3])
	}
	// Lossy coercion rejected.
	if _, err := db.Exec(`INSERT INTO t (a) VALUES ('not-a-number')`); err == nil {
		t.Error("bad coercion should fail")
	}
	if _, err := db.Exec(`INSERT INTO t (a) VALUES (1.5)`); err == nil {
		t.Error("fractional float into INTEGER should fail")
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		`SELECT * FROM missing`,
		`SELECT nope FROM asn_loc`,
		`SELECT asn FROM asn_name n JOIN asn_loc l ON n.asn = l.asn`, // ambiguous
		`INSERT INTO asn_loc (bogus) VALUES (1)`,
		`INSERT INTO missing VALUES (1)`,
		`CREATE TABLE asn_loc (x INTEGER)`,                // exists
		`SELECT COUNT(*) FROM asn_loc WHERE COUNT(*) > 1`, // aggregate in WHERE
		`SELECT FROM asn_loc`,
		`SELECT * FROM asn_loc WHERE`,
		`BOGUS STATEMENT`,
		`SELECT * FROM asn_loc; SELECT 1`, // trailing garbage
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			if _, err2 := db.Exec(q); err2 == nil {
				t.Errorf("query %q should fail", q)
			}
		}
	}
	if _, err := db.Exec(`SELECT 1`); err == nil {
		t.Error("Exec(SELECT) should direct caller to Query")
	}
	if _, err := db.Query(`DELETE FROM asn_loc`); err == nil {
		t.Error("Query(DELETE) should fail")
	}
}

// TestValidateStatementCatchesDrift runs statements that have drifted from
// the schema, each alone in an empty database holding only that schema, as
// igdblint's sqlcheck does, and checks that the engine rejects each one
// with a message naming what is wrong.
func TestValidateStatementCatchesDrift(t *testing.T) {
	schema := []string{
		`CREATE TABLE asn_loc (asn INTEGER, metro TEXT, country TEXT, as_of_date TEXT)`,
		`CREATE TABLE asn_name (asn INTEGER, asn_name TEXT, as_of_date TEXT)`,
	}
	cases := []struct {
		sql  string
		want string // substring of the error
	}{
		{`SELECT asn FROM asn_locs`, `no such table "asn_locs"`},
		{`SELECT asnn FROM asn_loc`, `no column "asnn"`},
		{`SELECT l.metroo FROM asn_loc l`, `no column l.metroo`},
		{`SELECT x.asn FROM asn_loc l`, `no column x.asn`},
		{`SELECT asn FROM asn_loc l JOIN asn_name n ON n.asn = l.asn`, `ambiguous column "asn"`},
		{`SELECT z.* FROM asn_loc l`, `no table "z" for z.*`},
		{`INSERT INTO asn_name (asn, nam) VALUES (1, 'x')`, `no column "nam" in table "asn_name"`},
		{`INSERT INTO asn_name VALUES (1)`, `INSERT expects 3 values, got 1`},
		{`UPDATE asn_loc SET metroo = 'x'`, `no column "metroo" in table "asn_loc"`},
		{`DELETE FROM nope`, `no such table "nope"`},
		{`DROP TABLE nope`, `no such table "nope"`},
		{`CREATE INDEX ON asn_loc (nope)`, `no column "nope" in table "asn_loc"`},
		{`SELECT metro`, `no column "metro"`},
		{`EXPLAIN DELETE FROM nope`, `no such table "nope"`},
		{`EXPLAIN UPDATE nope SET x = 1`, `no such table "nope"`},
		{`EXPLAIN INSERT INTO nope VALUES (1)`, `no such table "nope"`},
		{`EXPLAIN UPDATE asn_loc SET zz = 1`, `no column "zz" in table "asn_loc"`},
		{`EXPLAIN INSERT INTO asn_loc (zz) VALUES (1)`, `no column "zz" in table "asn_loc"`},
		{`EXPLAIN INSERT INTO asn_name VALUES (1)`, `INSERT expects 3 values, got 1`},
		{`EXPLAIN DELETE FROM asn_loc WHERE metroo = 'x'`, `no column "metroo"`},
		{`EXPLAIN UPDATE asn_loc SET metro = metroo`, `no column "metroo"`},
		{`EXPLAIN DROP TABLE nope`, `no such table "nope"`},
		{`EXPLAIN CREATE INDEX ON asn_loc (nope)`, `no column "nope" in table "asn_loc"`},
		{`EXPLAIN CREATE TABLE t (a TEXT, a TEXT)`, `duplicate column "a" in table "t"`},
	}
	for _, c := range cases {
		db := New()
		for _, ddl := range schema {
			db.MustExec(ddl)
		}
		var err error
		if strings.HasPrefix(c.sql, "SELECT") || strings.HasPrefix(c.sql, "EXPLAIN") {
			_, err = db.Query(c.sql)
		} else {
			_, err = db.Exec(c.sql)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: want error containing %q, got %v", c.sql, c.want, err)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (s TEXT)`)
	db.MustExec(`INSERT INTO t VALUES ('it''s')`)
	rows := db.MustQuery(`SELECT s FROM t WHERE s = 'it''s'`)
	if rows.Len() != 1 {
		t.Fatal("escaped quote round-trip failed")
	}
	if s, _ := rows.Rows[0][0].AsText(); s != "it's" {
		t.Errorf("got %q", s)
	}
}

func TestComments(t *testing.T) {
	db := testDB(t)
	rows := db.MustQuery("SELECT asn -- trailing comment\nFROM asn_loc -- another\nWHERE country = 'FR'")
	if rows.Len() != 2 {
		t.Errorf("comment handling broke query: %d rows", rows.Len())
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "HELLO", true}, // case-insensitive
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false}, // wrong length, no wildcard to absorb it
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"axbyc", "a%b%c", true},
		{"cogentco.com", "%.cogentco.com", false},
		{"rcr21.atlas.cogentco.com", "%.cogentco.com", true},
	}
	for _, c := range cases {
		if got := like(c.s, c.p); got != c.want {
			t.Errorf("like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Int(1), -1},
		{Int(1), Null, 1},
		{Null, Null, 0},
		{Int(1), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(1.5), Float(1.5), 0},
		{Text("a"), Text("b"), -1},
		{Bool(false), Bool(true), -1},
		{Text("10"), Int(9), 1}, // numeric coercion
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.NaN()), Float(math.Inf(1)), 1},
		{Int(5), Float(math.NaN()), -1},
		{Float(math.NaN()), Int(math.MaxInt64), 1},
		{Text("NaN"), Float(math.NaN()), 0},
		{Float(math.Copysign(0, -1)), Int(0), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Equal(Null, Null) {
		t.Error("NULL must not equal NULL")
	}
}

func TestGroupByNullsGroupTogether(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (k TEXT, v INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (NULL, 1), (NULL, 2), ('a', 3)`)
	rows := db.MustQuery(`SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY 2 DESC`)
	if rows.Len() != 2 {
		t.Fatalf("got %d groups, want 2", rows.Len())
	}
	if n, _ := rows.Rows[0][1].AsInt(); n != 2 {
		t.Errorf("NULL group size = %v", rows.Rows[0][1])
	}
}

func TestTableNamesAndAccessors(t *testing.T) {
	db := testDB(t)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "asn_loc" {
		t.Errorf("TableNames = %v", names)
	}
	tbl := db.Table("ASN_LOC") // case-insensitive
	if tbl == nil || tbl.Len() != 6 {
		t.Error("Table accessor failed")
	}
	if tbl.ColumnIndex("CITY") != 1 || tbl.ColumnIndex("zz") != -1 {
		t.Error("ColumnIndex wrong")
	}
}

func TestLargeJoinPerformanceSanity(t *testing.T) {
	// A 20k x 20k equi-join must complete fast (hash join, not O(n²)).
	db := New()
	db.MustExec(`CREATE TABLE big_a (id INTEGER, v TEXT)`)
	db.MustExec(`CREATE TABLE big_b (id INTEGER, w TEXT)`)
	var rowsA, rowsB [][]Value
	for i := 0; i < 20000; i++ {
		rowsA = append(rowsA, []Value{Int(int64(i)), Text("a")})
		rowsB = append(rowsB, []Value{Int(int64(i)), Text("b")})
	}
	if err := db.BulkInsert("big_a", rowsA); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkInsert("big_b", rowsB); err != nil {
		t.Fatal(err)
	}
	rows := db.MustQuery(`SELECT COUNT(*) FROM big_a a JOIN big_b b ON a.id = b.id`)
	if mustInt(rows.Rows[0][0]) != 20000 {
		t.Errorf("join count = %v", rows.Rows[0][0])
	}
}

func TestValueAccessors(t *testing.T) {
	if _, ok := Null.AsInt(); ok {
		t.Error("Null.AsInt should not be ok")
	}
	if s := Null.String(); s != "NULL" {
		t.Errorf("Null.String = %q", s)
	}
	if n, ok := Text(" 42 ").AsInt(); !ok || n != 42 {
		t.Error("text with spaces should parse to int")
	}
	if b, ok := Text("true").AsBool(); !ok || !b {
		t.Error("'true' should be truthy")
	}
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Error("bool→float")
	}
	if s, _ := Float(2.5).AsText(); s != "2.5" {
		t.Errorf("float text = %q", s)
	}
	if !strings.HasPrefix(Type(99).String(), "TYPE(") {
		t.Error("unknown type string")
	}
}

func BenchmarkSelectWhere(b *testing.B) {
	db := New()
	db.MustExec(`CREATE TABLE t (id INTEGER, country TEXT)`)
	var rows [][]Value
	countries := []string{"US", "FR", "DE", "JP", "BR"}
	for i := 0; i < 50000; i++ {
		rows = append(rows, []Value{Int(int64(i)), Text(countries[i%5])})
	}
	if err := db.BulkInsert("t", rows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustQuery(`SELECT COUNT(*) FROM t WHERE country = 'FR'`)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := New()
	db.MustExec(`CREATE TABLE a (id INTEGER)`)
	db.MustExec(`CREATE TABLE b2 (id INTEGER)`)
	var ra, rb [][]Value
	for i := 0; i < 10000; i++ {
		ra = append(ra, []Value{Int(int64(i))})
		rb = append(rb, []Value{Int(int64(i * 2))})
	}
	if err := db.BulkInsert("a", ra); err != nil {
		b.Fatal(err)
	}
	if err := db.BulkInsert("b2", rb); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustQuery(`SELECT COUNT(*) FROM a JOIN b2 ON a.id = b2.id`)
	}
}
