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
// integers apart exactly for a lookup to agree with a scan.
func TestIndexLookupFollowsWrites(t *testing.T) {
	db := reldb.New()
	db.MustExec("CREATE TABLE t (k INTEGER, s TEXT)")
	db.MustExec("INSERT INTO t VALUES (2, 'a'), (1, 'b'), (2, 'c'), (NULL, 'd')")
	db.MustExec("CREATE INDEX ON t (k)")
	db.MustExec("CREATE INDEX ON t (s)")
	check := func(step string) {
		t.Helper()
		for _, where := range []string{"k = 2", "2 = k", "s = 'c'", "k = 2 AND s <> 'a'", "k = 7", "k = 9007199254740993"} {
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
