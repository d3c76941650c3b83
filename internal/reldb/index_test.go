package reldb_test

import (
	"fmt"
	"strings"
	"testing"

	"igdb/internal/reldb"
)

// rowsText renders rows as "a b|c d" for compact comparisons.
func rowsText(rows *reldb.Rows) string {
	var out []string
	for _, r := range rows.Rows {
		var cells []string
		for _, v := range r {
			cells = append(cells, fmt.Sprint(v.Interface()))
		}
		out = append(out, strings.Join(cells, " "))
	}
	return strings.Join(out, "|")
}

// = coerces Text('1') and Int(1) equal, but their hash keys differ, so a
// TEXT = INTEGER equality must not key a hash join: every spelling of the
// join finds the one matching pair.
func TestJoinKeysAgreeWithEquals(t *testing.T) {
	db := reldb.New()
	db.MustExec("CREATE TABLE a (s TEXT)")
	db.MustExec("CREATE TABLE b (k INTEGER)")
	db.MustExec("INSERT INTO a VALUES ('1'), ('2')")
	db.MustExec("INSERT INTO b VALUES (1), (3)")
	for _, withIndex := range []bool{false, true} {
		if withIndex {
			db.MustExec("CREATE INDEX ON a (s)")
			db.MustExec("CREATE INDEX ON b (k)")
		}
		for _, sql := range []string{
			"SELECT a.s, b.k FROM a JOIN b ON a.s = b.k",
			"SELECT a.s, b.k FROM a JOIN b ON a.s >= b.k AND a.s <= b.k",
			"SELECT a.s, b.k FROM a JOIN b ON 1 = 1 WHERE a.s = b.k",
		} {
			rows, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if got := rowsText(rows); got != "1 1" {
				t.Errorf("indexed %v: %s returned %q, want \"1 1\"", withIndex, sql, got)
			}
		}
		plan, err := db.Explain("SELECT a.s FROM a JOIN b ON a.s = b.k", false)
		if err != nil {
			t.Fatal(err)
		}
		if ops := strings.Join(planOps(plan), " "); ops != "project nested_loop_join scan scan" {
			t.Errorf("indexed %v: plan %s, want a nested loop", withIndex, ops)
		}
	}
}

// A lookup reads the index as INSERT, UPDATE, DELETE and CREATE INDEX
// left it: after each, it returns the rows, in order, that a scan keeps.
// 2^53 and 2^53+1 have one float64 but two keys, so = must tell two
// integers apart exactly for a lookup to agree with a scan. Each statement
// also runs through one Stmt prepared before the indexes existed, so a
// bound tree that kept a bucket or an index map fails too.
func TestIndexLookupFollowsWrites(t *testing.T) {
	db := reldb.New()
	db.MustExec("CREATE TABLE t (k INTEGER, s TEXT)")
	db.MustExec("INSERT INTO t VALUES (2, 'a'), (1, 'b'), (2, 'c'), (NULL, 'd')")
	wheres := []string{"k = 2", "2 = k", "s = 'c'", "k = 2 AND s <> 'a'", "k = 7", "k = 9007199254740993"}
	prepared := map[string]*reldb.Stmt{}
	for _, where := range wheres {
		stmt, err := db.Prepare("SELECT k, s FROM t WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		defer stmt.Close()
		prepared[where] = stmt
	}
	db.MustExec("CREATE INDEX ON t (k)")
	db.MustExec("CREATE INDEX ON t (s)")
	check := func(step string) {
		t.Helper()
		for _, where := range wheres {
			sql := "SELECT k, s FROM t WHERE " + where
			plan, err := db.Explain(sql, false)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(strings.Join(plan.Text(), "\n"), "[index ") {
				t.Errorf("%s: %s is not a lookup:\n%s", step, sql, strings.Join(plan.Text(), "\n"))
			}
			got := rowsText(db.MustQuery(sql))
			want := rowsText(db.MustQuery("SELECT k, s FROM t WHERE COALESCE(" + where + ")"))
			if got != want {
				t.Errorf("%s: %s returned %q, a scan %q", step, sql, got, want)
			}
			rows, err := prepared[where].Query()
			if err != nil {
				t.Fatal(err)
			}
			if got := rowsText(rows); got != want {
				t.Errorf("%s: prepared %s returned %q, a scan %q", step, sql, got, want)
			}
		}
	}
	check("CREATE INDEX")
	db.MustExec("INSERT INTO t VALUES (2, 'e'), (3, 'c'), (9007199254740992, 'f'), (9007199254740993, 'g')")
	check("INSERT")
	db.MustExec("UPDATE t SET k = 2 WHERE s = 'b'")
	check("UPDATE")
	db.MustExec("DELETE FROM t WHERE s = 'a'")
	check("DELETE")
	if got := rowsText(db.MustQuery("SELECT s FROM t WHERE k = 2")); got != "b|c|e" {
		t.Errorf("k = 2 after the writes: %q, want b|c|e in row order", got)
	}
}

// A column that does not resolve fails the statement when it is bound,
// before any row is read, even where no row would reach it. Plain EXPLAIN
// evaluates nothing and still shows the plan. Errors that depend on a
// row's values, and an unknown function, still fail only on the rows that
// reach them.
func TestUnknownColumnFailsAtBind(t *testing.T) {
	db := reldb.New()
	db.MustExec("CREATE TABLE e (k INTEGER)")
	db.MustExec("CREATE TABLE t (k INTEGER, s TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, 'a')")
	for _, sql := range []string{
		"SELECT nosuch FROM e",
		"SELECT k FROM e WHERE nosuch = 2",
		"SELECT k FROM t WHERE 1 = 1 OR nosuch = 2",
		"SELECT t.k FROM t JOIN e ON e.k = t.k WHERE nosuch = 2",
		"SELECT t.k FROM t LEFT JOIN e ON e.k = t.k AND e.nosuch = 1",
		"SELECT k FROM t JOIN e ON e.k = t.k",
		"SELECT COUNT(*) FROM e GROUP BY nosuch",
		"SELECT k FROM e ORDER BY nosuch",
	} {
		_, err := db.Query(sql)
		if err == nil || !(strings.Contains(err.Error(), "no column") || strings.Contains(err.Error(), "ambiguous")) {
			t.Errorf("%s: err %v, want an unknown or ambiguous column", sql, err)
		}
		if _, err := db.Explain(sql, false); err != nil {
			t.Errorf("EXPLAIN %s: %v", sql, err)
		}
	}
	if _, err := db.Exec("DELETE FROM e WHERE nosuch = 1"); err == nil {
		t.Error("DELETE with an unknown column on an empty table succeeded")
	}
	for _, sql := range []string{
		"SELECT k FROM t WHERE k = 2 AND s + 1 > 0",
		"SELECT k FROM e WHERE NOSUCHFN(k) = 1",
	} {
		if _, err := db.Query(sql); err != nil {
			t.Errorf("%s: %v; no row reaches the failing expression", sql, err)
		}
	}
}

// A join that probes a stored index pads unmatched left rows under LEFT
// JOIN, never matches a NULL key, and runs the rest of ON on each match,
// like the hash table it replaces.
func TestStoredIndexJoin(t *testing.T) {
	db := reldb.New()
	db.MustExec("CREATE TABLE a (id INTEGER)")
	db.MustExec("CREATE TABLE b (id INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX ON b (id)")
	db.MustExec("INSERT INTO a VALUES (1), (NULL), (2), (3)")
	db.MustExec("INSERT INTO b VALUES (2, 20), (NULL, 0), (1, 10), (2, 21)")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT a.id, b.v FROM a JOIN b ON b.id = a.id",
			"1 10|2 20|2 21"},
		{"SELECT a.id, b.v FROM a LEFT JOIN b ON b.id = a.id",
			"1 10|<nil> <nil>|2 20|2 21|3 <nil>"},
		{"SELECT a.id, b.v FROM a LEFT JOIN b ON b.id = a.id AND b.v > a.id * 10",
			"1 <nil>|<nil> <nil>|2 21|3 <nil>"},
	} {
		plan, err := db.Explain(tc.sql, false)
		if err != nil {
			t.Fatal(err)
		}
		var join *reldb.PlanNode
		plan.Walk(func(p *reldb.PlanNode, _ int) {
			if p.Op == "hash_join" {
				join = p
			}
		})
		if join == nil || join.Index != "index b.id" {
			t.Errorf("%s does not probe b's index:\n%s", tc.sql, strings.Join(plan.Text(), "\n"))
		}
		if got := rowsText(db.MustQuery(tc.sql)); got != tc.want {
			t.Errorf("%s\n got %s\nwant %s", tc.sql, got, tc.want)
		}
	}
}

// NaN equals NaN and is greater than every other number, as in
// PostgreSQL, so = and ORDER BY agree with the key GROUP BY, DISTINCT and
// hash joins give NaN, whatever order the rows came in.
func TestNaNIsGreatestNumber(t *testing.T) {
	for _, order := range []string{"('NaN'), (1.5), (3.0)", "(1.5), ('NaN'), (3.0)"} {
		db := reldb.New()
		db.MustExec("CREATE TABLE t (x REAL)")
		db.MustExec("CREATE TABLE n (k INTEGER)")
		db.MustExec("INSERT INTO t VALUES " + order)
		db.MustExec("INSERT INTO n VALUES (1), (5)")
		for _, tc := range []struct{ sql, want string }{
			{"SELECT x FROM t WHERE x = 5", ""},
			{"SELECT x FROM t WHERE x = 1.5", "1.5"},
			{"SELECT x FROM t WHERE x = 'NaN'", "NaN"},
			{"SELECT x FROM t WHERE x > 1e300", "NaN"},
			{"SELECT x FROM t WHERE x BETWEEN 1 AND 1e300", "1.5|3"},
			{"SELECT x FROM t ORDER BY x", "1.5|3|NaN"},
			{"SELECT x FROM t ORDER BY x DESC", "NaN|3|1.5"},
			{"SELECT MIN(x), MAX(x) FROM t", "1.5 NaN"},
			{"SELECT n.k, t.x FROM n JOIN t ON t.x > n.k ORDER BY n.k, t.x", "1 1.5|1 3|1 NaN|5 NaN"},
			{"SELECT COUNT(*) FROM t a JOIN t b ON a.x = b.x", "3"},
			{"SELECT COUNT(*) FROM t a JOIN t b ON a.x <= b.x AND a.x >= b.x", "3"},
		} {
			rows, err := db.Query(tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			if got := rowsText(rows); got != tc.want {
				t.Errorf("rows %s: %s returned %q, want %q", order, tc.sql, got, tc.want)
			}
		}
		db.MustExec("INSERT INTO t VALUES ('NaN')")
		if got := rowsText(db.MustQuery("SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x")); got != "1.5 1|3 1|NaN 2" {
			t.Errorf("rows %s: GROUP BY x returned %q, want one NaN group of 2", order, got)
		}
		if got := rowsText(db.MustQuery("SELECT DISTINCT x FROM t ORDER BY 1 DESC")); got != "NaN|3|1.5" {
			t.Errorf("rows %s: DISTINCT x returned %q", order, got)
		}
	}
}
