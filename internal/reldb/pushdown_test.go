package reldb_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"igdb/internal/reldb"
)

// A prepared statement places its filters on every execution, against the
// tables current then: an unqualified column that a re-created table makes
// ambiguous is no longer pushed and fails as it would after the join.
func TestPushdownReplansAfterDropCreate(t *testing.T) {
	db := reldb.New()
	db.MustExec("CREATE TABLE a (id INTEGER, x INTEGER)")
	db.MustExec("CREATE TABLE b (id INTEGER, y INTEGER)")
	db.MustExec("INSERT INTO a VALUES (1, 1), (2, 2)")
	db.MustExec("INSERT INTO b VALUES (1, 10), (2, 20)")
	const q = "SELECT a.id, b.y FROM a JOIN b ON b.id = a.id WHERE x = 1"
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rows, err := stmt.Query()
	if err != nil || rows.Len() != 1 {
		t.Fatalf("before DROP: %v rows, err %v; want 1 row", rows, err)
	}
	plan, err := db.Explain(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(planOps(plan), " "); got != "project hash_join filter scan scan" {
		t.Errorf("before DROP: plan %s, want the filter on a's scan", got)
	}

	db.MustExec("DROP TABLE b")
	db.MustExec("CREATE TABLE b (id INTEGER, x INTEGER)")
	db.MustExec("INSERT INTO b VALUES (1, 5)")
	if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("after re-CREATE: err = %v, want an ambiguous column", err)
	}
	plan, err = db.Explain(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(planOps(plan), " "); got != "project filter hash_join scan scan" {
		t.Errorf("after re-CREATE: plan %s, want the filter above the join", got)
	}
}

// A LEFT JOIN's ON conjunct on its own table filters that table before the
// join, so unmatched rows are still padded; its WHERE conjunct runs after
// the join and sees the padding.
func TestPushdownLeftJoin(t *testing.T) {
	db := reldb.New()
	db.MustExec("CREATE TABLE a (id INTEGER)")
	db.MustExec("CREATE TABLE b (id INTEGER, v INTEGER)")
	db.MustExec("INSERT INTO a VALUES (1), (2), (3)")
	db.MustExec("INSERT INTO b VALUES (1, 10), (2, 20), (2, NULL)")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT a.id, b.v FROM a LEFT JOIN b ON b.id = a.id AND b.v > 15",
			"1 <nil>|2 20|3 <nil>"},
		{"SELECT a.id, b.v FROM a LEFT JOIN b ON b.id = a.id WHERE b.v IS NULL",
			"2 <nil>|3 <nil>"},
		{"SELECT a.id, b.v FROM a LEFT JOIN b ON b.id = a.id AND b.v IS NULL WHERE a.id < 3",
			"1 <nil>|2 <nil>"},
	} {
		rows, err := db.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var got []string
		for _, r := range rows.Rows {
			got = append(got, fmt.Sprint(r[0].Interface(), " ", r[1].Interface()))
		}
		if strings.Join(got, "|") != tc.want {
			t.Errorf("%s\n got %s\nwant %s", tc.sql, strings.Join(got, "|"), tc.want)
		}
	}
}

// A query that fails only because an erroring expression meets rows that a
// pushed filter drops now succeeds: the arithmetic conjunct stays after the
// scan filter and never sees the non-numeric row.
func TestPushdownErrorsOnlyOnRowsThatReachThem(t *testing.T) {
	db := reldb.New()
	db.MustExec("CREATE TABLE t (k INTEGER, s TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, '7'), (2, 'abc')")
	if _, err := db.Query("SELECT k FROM t WHERE s + 1 > 0"); err == nil {
		t.Fatal("s + 1 on 'abc' did not fail")
	}
	rows, err := db.Query("SELECT k FROM t WHERE s + 1 > 0 AND k = 1")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("rows %v, err %v; want one row", rows, err)
	}
}

// ---- pushdown oracles ----

// oracleTables are the generator's tables: k is in all three and s in two,
// so unqualified references are sometimes unique and sometimes ambiguous.
var oracleTables = []oracleTable{
	{"t0", []oracleCol{{"k", "INTEGER"}, {"a", "INTEGER"}, {"s", "TEXT"}}},
	{"t1", []oracleCol{{"k", "INTEGER"}, {"b", "INTEGER"}, {"s", "TEXT"}}},
	{"t2", []oracleCol{{"k", "INTEGER"}, {"c", "INTEGER"}, {"u", "TEXT"}}},
}

// oracleTable is a generated table; each has three columns.
type oracleTable struct {
	name string
	cols []oracleCol
}

type oracleCol struct {
	name, typ string // typ is INTEGER, TEXT or REAL
}

func (c oracleCol) text() bool { return c.typ == "TEXT" }

// tableRef is one FROM or JOIN entry of a generated query.
type tableRef struct {
	label string
	table int
}

// queryGen writes random SELECTs over tables. Every query it writes is
// valid and cannot fail: columns resolve, and arithmetic and ABS see only
// numeric columns. Some text values and literals look numeric ('1',
// '01', ' 2'), which = coerces equal to an integer column's 1 or 2 but
// which are not that integer's index or hash key.
type queryGen struct {
	r      *rand.Rand
	tables []oracleTable
}

func (g *queryGen) intLit() string {
	return []string{"-1", "0", "1", "2", "3", "NULL"}[g.r.Intn(6)]
}

func (g *queryGen) textLit() string {
	return []string{"'x'", "'y'", "'xy'", "''", "'1'", "'01'", "' 2'", "NULL"}[g.r.Intn(8)]
}

// oracleTexts are the text values the tables hold.
var oracleTexts = []string{"x", "y", "xy", "", "1", "01", " 2"}

// realLit is a literal for a REAL column: NaN (through its text), -0.0,
// a fraction, a huge number, an integral one or NULL.
func (g *queryGen) realLit() string {
	return []string{"'NaN'", "-0.0", "1.5", "1e300", "2", "NULL"}[g.r.Intn(6)]
}

func (g *queryGen) lit(c oracleCol) string {
	text := c.text()
	if g.r.Intn(8) == 0 {
		text = !text // a cross-type comparison now and then
	}
	switch {
	case text:
		return g.textLit()
	case c.typ == "REAL":
		return g.realLit()
	}
	return g.intLit()
}

// column picks a column of one of refs, qualified unless its name is
// unique in scope and a coin says to leave it bare.
func (g *queryGen) column(refs, scope []tableRef) (string, oracleCol) {
	rf := refs[g.r.Intn(len(refs))]
	c := g.tables[rf.table].cols[g.r.Intn(3)]
	return g.name(rf.label, c.name, scope), c
}

// name writes column col of the table labelled label, qualified unless
// col is unique in scope and a coin says to leave it bare.
func (g *queryGen) name(label, col string, scope []tableRef) string {
	n := 0
	for _, s := range scope {
		for _, sc := range g.tables[s.table].cols {
			if sc.name == col {
				n++
			}
		}
	}
	if n == 1 && g.r.Intn(3) == 0 {
		return col
	}
	return label + "." + col
}

// intColumn picks a numeric column of refs.
func (g *queryGen) intColumn(refs, scope []tableRef) string {
	for {
		if c, col := g.column(refs, scope); !col.text() {
			return c
		}
	}
}

// atom is one predicate with no AND or OR. Two times in three its columns
// come from a single table.
func (g *queryGen) atom(scope []tableRef) string {
	refs := scope
	if g.r.Intn(3) > 0 {
		i := g.r.Intn(len(scope))
		refs = scope[i : i+1]
	}
	ops := []string{"=", "!=", "<>", "<", "<=", ">", ">="}
	not := func() string {
		if g.r.Intn(3) == 0 {
			return "NOT "
		}
		return ""
	}
	switch g.r.Intn(10) {
	case 0:
		c, col := g.column(refs, scope)
		return fmt.Sprintf("%s %s %s", c, ops[g.r.Intn(len(ops))], g.lit(col))
	case 1:
		l, _ := g.column(refs, scope)
		r, _ := g.column(refs, scope)
		return fmt.Sprintf("%s %s %s", l, ops[g.r.Intn(len(ops))], r)
	case 2:
		c, _ := g.column(refs, scope)
		return fmt.Sprintf("%s IS %sNULL", c, not())
	case 3:
		c, col := g.column(refs, scope)
		return fmt.Sprintf("%s %sIN (%s, %s)", c, not(), g.lit(col), g.lit(col))
	case 4:
		c, col := g.column(refs, scope)
		return fmt.Sprintf("%s %sBETWEEN %s AND %s", c, not(), g.lit(col), g.lit(col))
	case 5:
		c, _ := g.column(refs, scope)
		return fmt.Sprintf("%s %sLIKE '%s'", c, not(), []string{"x%", "%y", "_", "%"}[g.r.Intn(4)])
	case 6:
		return []string{"1 = 1", "1 = 0", "NULL IS NULL", "NULL = 1", "2 > 1"}[g.r.Intn(5)]
	case 7:
		// Calls and arithmetic never move, though these cannot fail here.
		c := g.intColumn(refs, scope)
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("COALESCE(%s, 0) %s %s", c, ops[g.r.Intn(len(ops))], g.intLit())
		case 1:
			return fmt.Sprintf("ABS(%s) < 2", c)
		default:
			return fmt.Sprintf("%s + 1 %s %s", c, ops[g.r.Intn(len(ops))], g.intLit())
		}
	case 8:
		return fmt.Sprintf("-1 < %s", g.intColumn(refs, scope))
	default:
		return "NOT (" + g.atom(scope) + ")"
	}
}

func (g *queryGen) pred(scope []tableRef, depth int) string {
	if depth == 0 || g.r.Intn(2) == 0 {
		return g.atom(scope)
	}
	switch g.r.Intn(3) {
	case 0:
		return "(" + g.pred(scope, depth-1) + ") AND (" + g.pred(scope, depth-1) + ")"
	case 1:
		return "(" + g.pred(scope, depth-1) + ") OR (" + g.pred(scope, depth-1) + ")"
	default:
		return "NOT (" + g.pred(scope, depth-1) + ")"
	}
}

// eq is column = literal, in either order, on one table's column: the
// conjunct an index lookup answers. One time in three the literal is of
// the other type.
func (g *queryGen) eq(scope []tableRef) string {
	i := g.r.Intn(len(scope))
	c, col := g.column(scope[i:i+1], scope)
	lit := g.intLit()
	if col.text() != (g.r.Intn(3) == 0) {
		lit = g.textLit()
	}
	if g.r.Intn(2) == 0 {
		return lit + " = " + c
	}
	return c + " = " + lit
}

// conjunct is a predicate, or one time in three an eq.
func (g *queryGen) conjunct(scope []tableRef, depth int) string {
	if g.r.Intn(3) == 0 {
		return g.eq(scope)
	}
	return g.pred(scope, depth)
}

// conjunction joins one to three conjuncts with top-level ANDs.
func (g *queryGen) conjunction(scope []tableRef) string {
	parts := make([]string, 1+g.r.Intn(3))
	for i := range parts {
		parts[i] = "(" + g.conjunct(scope, 2) + ")"
	}
	return strings.Join(parts, " AND ")
}

// oracleQuery is a generated SELECT cut into the parts the oracles
// recombine: the select list, the FROM and JOIN clauses, an optional
// base WHERE q and the predicate p that partitions it.
type oracleQuery struct {
	scope            []tableRef // the tables of from, in order
	cols, from, q, p string
	// wrapped is from with every ON clause wrapped in COALESCE, a call,
	// which placement never splits or moves.
	wrapped string
}

func (g *queryGen) query() oracleQuery {
	var scope []tableRef
	var from, wrapped strings.Builder
	n := 1 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		rf := tableRef{table: g.r.Intn(len(g.tables))}
		name := g.tables[rf.table].name
		rf.label = name
		clash := false
		for _, s := range scope {
			clash = clash || s.label == name
		}
		ref := name
		if clash || g.r.Intn(2) == 0 {
			rf.label = fmt.Sprintf("q%d", i)
			ref += " " + rf.label
		}
		if i == 0 {
			scope = append(scope, rf)
			from.WriteString(ref)
			wrapped.WriteString(ref)
			continue
		}
		left := scope
		scope = append(scope, rf)
		var on []string
		if g.r.Intn(10) < 7 {
			// An equi-join on k, or on two columns that may differ in type.
			l := left[g.r.Intn(len(left))]
			lc, rc := "k", "k"
			if g.r.Intn(3) == 0 {
				lc = g.tables[l.table].cols[g.r.Intn(3)].name
				rc = g.tables[rf.table].cols[g.r.Intn(3)].name
			}
			on = append(on, fmt.Sprintf("%s.%s = %s.%s", l.label, lc, rf.label, rc))
		}
		for m := g.r.Intn(3); m > 0 || len(on) == 0; m-- {
			on = append(on, "("+g.conjunct(scope, 1)+")")
		}
		kind := " JOIN "
		if g.r.Intn(2) == 0 {
			kind = " LEFT JOIN "
		}
		cond := strings.Join(on, " AND ")
		from.WriteString(kind + ref + " ON " + cond)
		wrapped.WriteString(kind + ref + " ON COALESCE(" + cond + ")")
	}
	var cols []string
	for _, s := range scope {
		for _, c := range g.tables[s.table].cols {
			cols = append(cols, s.label+"."+c.name)
		}
	}
	oq := oracleQuery{scope: scope, cols: strings.Join(cols, ", "), from: from.String(), wrapped: wrapped.String(), p: g.pred(scope, 2)}
	if g.r.Intn(10) < 6 {
		oq.q = g.conjunction(scope)
	}
	return oq
}

// sql renders SELECT cols FROM from WHERE q AND (pred), leaving out what
// is empty.
func (oq oracleQuery) sql(cols, from, pred string) string {
	var where []string
	if oq.q != "" {
		where = append(where, oq.q)
	}
	if pred != "" {
		where = append(where, "("+pred+")")
	}
	s := "SELECT " + cols + " FROM " + from
	if len(where) > 0 {
		s += " WHERE " + strings.Join(where, " AND ")
	}
	return s
}

func rowKeys(rows *reldb.Rows, width int) []string {
	out := make([]string, len(rows.Rows))
	for i, r := range rows.Rows {
		var b strings.Builder
		for _, v := range r[:width] {
			fmt.Fprintf(&b, "%T:%v|", v.Interface(), v.Interface())
		}
		out[i] = b.String()
	}
	return out
}

// checkOracles runs one generated query through five comparisons. relc
// is db's RELC copy (relcCopy).
func checkOracles(t *testing.T, db, relc *reldb.DB, oq oracleQuery) {
	t.Helper()
	width := strings.Count(oq.cols, ",") + 1
	run := func(sql string) []string {
		t.Helper()
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rowKeys(rows, width)
	}
	where := run(oq.sql(oq.cols, oq.from, oq.p))

	// NoREC: WHERE p keeps exactly the rows, in order, on which p selected
	// as a column is true.
	ref, err := db.Query(oq.sql(oq.cols+", ("+oq.p+") AS keep", oq.from, ""))
	if err != nil {
		t.Fatalf("NoREC reference: %v", err)
	}
	var kept []string
	keys := rowKeys(ref, width)
	for i, r := range ref.Rows {
		if b, ok := r[width].AsBool(); ok && b {
			kept = append(kept, keys[i])
		}
	}
	if strings.Join(where, "\n") != strings.Join(kept, "\n") {
		t.Fatalf("NoREC: WHERE p returned %d rows, p as a column keeps %d\n%s\np: %s",
			len(where), len(kept), oq.sql(oq.cols, oq.from, oq.p), oq.p)
	}

	// TLP: Q is the disjoint union of Q WHERE p, WHERE NOT p and WHERE p IS
	// NULL, as multisets.
	all := run(oq.sql(oq.cols, oq.from, ""))
	parts := append(append(append([]string{}, where...),
		run(oq.sql(oq.cols, oq.from, "NOT ("+oq.p+")"))...),
		run(oq.sql(oq.cols, oq.from, "("+oq.p+") IS NULL"))...)
	sort.Strings(all)
	sort.Strings(parts)
	if strings.Join(all, "\n") != strings.Join(parts, "\n") {
		t.Fatalf("TLP: Q has %d rows, its three partitions %d\n%s\np: %s",
			len(all), len(parts), oq.sql(oq.cols, oq.from, ""), oq.p)
	}

	// Nothing moved: with WHERE and every ON wrapped in COALESCE, no
	// conjunct is pushed, so no index is read, and no hash join is chosen;
	// rows and order match.
	whole := oq.p
	if oq.q != "" {
		whole = oq.q + " AND (" + oq.p + ")"
	}
	unpushed := run("SELECT " + oq.cols + " FROM " + oq.wrapped + " WHERE COALESCE(" + whole + ")")
	if strings.Join(where, "\n") != strings.Join(unpushed, "\n") {
		t.Fatalf("pushed and unpushed plans differ: %d vs %d rows\n%s",
			len(where), len(unpushed), oq.sql(oq.cols, oq.from, oq.p))
	}

	// EXPLAIN ANALYZE runs the plan it shows: its root emits the rows the
	// query returns.
	plan, err := db.Explain(oq.sql(oq.cols, oq.from, oq.p), true)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE: %v", err)
	}
	if plan.Actual == nil || plan.Actual.RowsOut != len(where) {
		t.Fatalf("EXPLAIN ANALYZE root %+v, the query returned %d rows\n%s",
			plan.Actual, len(where), oq.sql(oq.cols, oq.from, oq.p))
	}

	checkRELC(t, db, relc, oq.sql(oq.cols, oq.from, oq.p), width)
}

// relcCopy returns db as a follower receives it: each table sent through
// EncodeTable and DecodeTable, then created from its DDL and filled by
// BulkInsert, with no indexes.
func relcCopy(t *testing.T, db *reldb.DB) *reldb.DB {
	t.Helper()
	cp := reldb.New()
	for _, name := range db.TableNames() {
		dt, err := reldb.DecodeTable(reldb.EncodeTable(db.Table(name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cp.MustExec(dt.CreateTableDDL())
		if err := cp.BulkInsert(dt.Name, dt.Rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return cp
}

// checkRELC requires db's RELC copy to answer sql with the same rows in
// the same order.
func checkRELC(t *testing.T, db, relc *reldb.DB, sql string, width int) {
	t.Helper()
	want, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	got, err := relc.Query(sql)
	if err != nil {
		t.Fatalf("RELC copy: %s: %v", sql, err)
	}
	if g, w := strings.Join(rowKeys(got, width), "\n"), strings.Join(rowKeys(want, width), "\n"); g != w {
		t.Fatalf("RELC copy differs from the original\n%s\n got:\n%s\nwant:\n%s", sql, g, w)
	}
}

// oracleReals are the values REAL columns hold: NaN, both zeros, a
// fraction, a huge number and an integral one.
var oracleReals = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, 1e300, 2}

// oracleDB fills tables with zero to maxRows rows each, a fifth of the
// values NULL, and gives each column a hash index half the time, created
// before or after the rows go in.
func oracleDB(t *testing.T, r *rand.Rand, tables []oracleTable, maxRows int) *reldb.DB {
	db := reldb.New()
	for _, tb := range tables {
		var defs []string
		for _, c := range tb.cols {
			defs = append(defs, c.name+" "+c.typ)
		}
		db.MustExec("CREATE TABLE " + tb.name + " (" + strings.Join(defs, ", ") + ")")
		var indexes []string
		for _, c := range tb.cols {
			if r.Intn(2) == 0 {
				indexes = append(indexes, "CREATE INDEX ON "+tb.name+" ("+c.name+")")
			}
		}
		early := r.Intn(2) == 0
		if early {
			for _, ddl := range indexes {
				db.MustExec(ddl)
			}
		}
		var rows [][]reldb.Value
		for i := r.Intn(maxRows + 1); i > 0; i-- {
			row := make([]reldb.Value, len(tb.cols))
			for j, c := range tb.cols {
				switch {
				case r.Intn(5) == 0:
					row[j] = reldb.Null
				case c.text():
					row[j] = reldb.Text(oracleTexts[r.Intn(len(oracleTexts))])
				case c.typ == "REAL":
					row[j] = reldb.Float(oracleReals[r.Intn(len(oracleReals))])
				default:
					row[j] = reldb.Int(int64(r.Intn(4)))
				}
			}
			rows = append(rows, row)
		}
		if err := db.BulkInsert(tb.name, rows); err != nil {
			t.Fatal(err)
		}
		if !early {
			for _, ddl := range indexes {
				db.MustExec(ddl)
			}
		}
	}
	return db
}

// FuzzPushdownOracles checks filter placement, index lookups and hash
// joins on generated 1-3 table SELECTs (INNER and LEFT JOINs, aliased
// self-joins, single-table, mixed and constant predicates, NULLs, indexed
// columns, numeric-looking text) with NoREC and TLP, and against the same
// query with nothing pushed, no index read and no hash join. It also
// checks EXPLAIN ANALYZE's row count and the database's RELC copy. Each
// input seeds one database and 30 queries;
// the committed corpus in testdata/fuzz/FuzzPushdownOracles runs with every
// go test, and go test -fuzz FuzzPushdownOracles searches further.
func FuzzPushdownOracles(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		db := oracleDB(t, r, oracleTables, 6)
		relc := relcCopy(t, db)
		g := &queryGen{r: r, tables: oracleTables}
		for i := 0; i < 30; i++ {
			checkOracles(t, db, relc, g.query())
		}
	})
}
