package reldb_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"igdb/internal/reldb"
)

// shapeTables are FuzzShapeOracles' tables: t0 of oracleTables beside
// two tables with a REAL column x, so x is ambiguous unqualified when both
// are in scope.
var shapeTables = []oracleTable{
	oracleTables[0],
	{"r1", []oracleCol{{"k", "INTEGER"}, {"x", "REAL"}, {"s", "TEXT"}}},
	{"r2", []oracleCol{{"k", "INTEGER"}, {"x", "REAL"}, {"u", "TEXT"}}},
}

// shapeExpr is a select item, GROUP BY or ORDER BY key, or HAVING operand
// of a generated query: a bare column, or an aggregate over one.
type shapeExpr struct {
	sql      string
	arg      string // an aggregate's column as written
	col      int    // position among the reference query's columns
	fn       string // COUNT, SUM, MIN or MAX; "" for a bare column
	star     bool   // COUNT(*)
	distinct bool
}

// eval is e's value over one group's rows as reldb defines it: a bare
// column reads the group's first row, NULL when there is none, and an
// aggregate skips NULLs. SUM adds in row order, as float64, and gives an
// integer when every value is one and the sum is integral.
func (e shapeExpr) eval(group [][]reldb.Value) reldb.Value {
	if e.fn == "" {
		if len(group) == 0 {
			return reldb.Null
		}
		return group[0][e.col]
	}
	if e.star {
		return reldb.Int(int64(len(group)))
	}
	var vals []reldb.Value
	for _, row := range group {
		v := row[e.col]
		if v.IsNull() || (e.distinct && indexOfValues(vals, []reldb.Value{v}, 1) >= 0) {
			continue
		}
		vals = append(vals, v)
	}
	if e.fn == "COUNT" {
		return reldb.Int(int64(len(vals)))
	}
	if len(vals) == 0 {
		return reldb.Null
	}
	if e.fn == "SUM" {
		// INTEGER while every value is an integer and no partial sum
		// leaves int64; otherwise the float64 sum, REAL.
		var sum float64
		exact := new(big.Int)
		for _, v := range vals {
			f, _ := v.AsFloat()
			sum += f
			if i, isInt := v.Interface().(int64); isInt && exact != nil {
				if exact.Add(exact, big.NewInt(i)); !exact.IsInt64() {
					exact = nil
				}
			} else {
				exact = nil
			}
		}
		if exact != nil {
			return reldb.Int(exact.Int64())
		}
		return reldb.Float(sum)
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if c := reldb.Compare(v, best); (e.fn == "MIN" && c < 0) || (e.fn == "MAX" && c > 0) {
			best = v
		}
	}
	return best
}

// indexOfValues returns the first i such that the first n values of
// rows[i] and of key compare equal, or -1.
func indexOfValues(rows []reldb.Value, key []reldb.Value, n int) int {
	for i := 0; i+n <= len(rows); i += n {
		if valuesEqual(rows[i:i+n], key[:n]) {
			return i / n
		}
	}
	return -1
}

func valuesEqual(a, b []reldb.Value) bool {
	for i := range a {
		if reldb.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// shapeKey is one ORDER BY key: select item item, or expr when item < 0.
type shapeKey struct {
	item int
	expr shapeExpr
	desc bool
}

// shapeQuery is an oracleQuery's FROM and WHERE with grouping,
// aggregates, HAVING, DISTINCT, ORDER BY, LIMIT and OFFSET on top.
type shapeQuery struct {
	oq       oracleQuery
	grouped  bool
	by       []shapeExpr
	items    []shapeExpr
	having   *shapeExpr // keeps groups where it is > havingN, or IS NOT NULL under notNull
	havingN  int64
	notNull  bool
	distinct bool
	order    []shapeKey
	limit    int // -1 for none
	offset   int
	sql      string
}

// shape writes a grouped or plain query over oq's FROM and WHERE. Aliases
// come from k, n, m and v, so an alias can shadow column k in ORDER BY.
func (g *queryGen) shape(oq oracleQuery) shapeQuery {
	type colRef struct {
		label string
		col   oracleCol
	}
	var cols []colRef
	for _, s := range oq.scope {
		for _, c := range g.tables[s.table].cols {
			cols = append(cols, colRef{s.label, c})
		}
	}
	column := func(numeric bool) shapeExpr {
		for {
			i := g.r.Intn(len(cols))
			if !numeric || !cols[i].col.text() {
				name := g.name(cols[i].label, cols[i].col.name, oq.scope)
				return shapeExpr{sql: name, arg: name, col: i}
			}
		}
	}
	// aggregate writes an aggregate call. One time in four it repeats an
	// earlier one of the query's, with DISTINCT flipped, so calls that
	// differ only there must not share a result.
	var written []shapeExpr
	aggregate := func() shapeExpr {
		fn := []string{"COUNT", "SUM", "MIN", "MAX"}[g.r.Intn(4)]
		var e shapeExpr
		switch {
		case len(written) > 0 && g.r.Intn(4) == 0:
			e = written[g.r.Intn(len(written))]
			e.distinct = !e.distinct
		case fn == "COUNT" && g.r.Intn(4) == 0:
			return shapeExpr{sql: "COUNT(*)", fn: fn, star: true}
		default:
			e = column(fn == "SUM")
			e.fn, e.distinct = fn, g.r.Intn(3) == 0
		}
		arg := e.arg
		if e.distinct {
			arg = "DISTINCT " + arg
		}
		e.sql = e.fn + "(" + arg + ")"
		written = append(written, e)
		return e
	}

	sq := shapeQuery{oq: oq, grouped: g.r.Intn(3) > 0, limit: -1}
	if sq.grouped {
		for n := g.r.Intn(3); n > 0; n-- {
			k := column(false)
			sq.by = append(sq.by, k)
			if g.r.Intn(3) > 0 {
				sq.items = append(sq.items, k)
			}
		}
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			sq.items = append(sq.items, aggregate())
		}
		if g.r.Intn(6) == 0 {
			sq.items = append(sq.items, column(false)) // reads each group's first row
		}
		if g.r.Intn(3) == 0 {
			h := aggregate()
			sq.having, sq.havingN, sq.notNull = &h, int64(g.r.Intn(4)-1), g.r.Intn(3) == 0
		}
	} else {
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			sq.items = append(sq.items, column(false))
		}
	}
	g.r.Shuffle(len(sq.items), func(i, j int) { sq.items[i], sq.items[j] = sq.items[j], sq.items[i] })

	aliases := make([]string, len(sq.items))
	used := map[string]bool{}
	var list []string
	for i, it := range sq.items {
		s := it.sql
		if a := []string{"k", "n", "m", "v"}[g.r.Intn(4)]; g.r.Intn(2) == 0 && !used[a] {
			used[a], aliases[i] = true, a
			s += " AS " + a
		}
		list = append(list, s)
	}
	var order []string
	for n := g.r.Intn(4); n > 0; n-- {
		key := shapeKey{item: -1, desc: g.r.Intn(2) == 0}
		var s string
		switch i := g.r.Intn(len(sq.items)); g.r.Intn(4) {
		case 0:
			key.item, s = i, fmt.Sprint(i+1)
		case 1:
			key.item, s = i, aliases[i]
			if s == "" {
				s = fmt.Sprint(i + 1)
			}
		case 2:
			if sq.grouped {
				key.expr = aggregate()
				s = key.expr.sql
				break
			}
			fallthrough
		default:
			key.expr = column(false)
			s = key.expr.sql
			for j, a := range aliases {
				if a != "" && a == s {
					key.item = j // an alias shadows the column it names
				}
			}
		}
		if key.desc {
			s += " DESC"
		}
		sq.order = append(sq.order, key)
		order = append(order, s)
	}
	sq.distinct = g.r.Intn(4) == 0
	if g.r.Intn(3) == 0 {
		sq.limit = g.r.Intn(5)
	}
	if g.r.Intn(4) == 0 {
		sq.offset = g.r.Intn(4)
	}

	items := strings.Join(list, ", ")
	if sq.distinct {
		items = "DISTINCT " + items
	}
	sq.sql = oq.sql(items, oq.from, oq.p) + sq.clauses(order)
	return sq
}

// clauses renders GROUP BY, HAVING, ORDER BY, LIMIT and OFFSET.
func (sq shapeQuery) clauses(order []string) string {
	var b strings.Builder
	if len(sq.by) > 0 {
		var by []string
		for _, e := range sq.by {
			by = append(by, e.sql)
		}
		b.WriteString(" GROUP BY " + strings.Join(by, ", "))
	}
	if sq.having != nil {
		if sq.notNull {
			b.WriteString(" HAVING " + sq.having.sql + " IS NOT NULL")
		} else {
			fmt.Fprintf(&b, " HAVING %s > %d", sq.having.sql, sq.havingN)
		}
	}
	if len(order) > 0 {
		b.WriteString(" ORDER BY " + strings.Join(order, ", "))
	}
	if sq.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", sq.limit)
	}
	if sq.offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", sq.offset)
	}
	return b.String()
}

// want computes the query's answer from the rows of the reference query,
// the same FROM and WHERE selecting every column: it groups rows whose
// keys compare equal in first-seen order, aggregates, applies HAVING,
// keeps the first of each set of equal rows under DISTINCT, sorts stably
// by reldb.Compare and slices.
func (sq shapeQuery) want(rows [][]reldb.Value) [][]reldb.Value {
	var groups [][][]reldb.Value
	switch {
	case !sq.grouped:
		for _, row := range rows {
			groups = append(groups, [][]reldb.Value{row})
		}
	case len(sq.by) == 0:
		groups = [][][]reldb.Value{rows}
	default:
		var keys []reldb.Value
		for _, row := range rows {
			var key []reldb.Value
			for _, e := range sq.by {
				key = append(key, row[e.col])
			}
			gi := indexOfValues(keys, key, len(key))
			if gi < 0 {
				gi = len(groups)
				keys = append(keys, key...)
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], row)
		}
	}
	type outRow struct{ vals, keys []reldb.Value }
	var out []outRow
	for _, grp := range groups {
		if sq.having != nil {
			v := sq.having.eval(grp)
			if v.IsNull() || (!sq.notNull && reldb.Compare(v, reldb.Int(sq.havingN)) <= 0) {
				continue
			}
		}
		var o outRow
		for _, it := range sq.items {
			o.vals = append(o.vals, it.eval(grp))
		}
		for _, k := range sq.order {
			if k.item >= 0 {
				o.keys = append(o.keys, o.vals[k.item])
			} else {
				o.keys = append(o.keys, k.expr.eval(grp))
			}
		}
		out = append(out, o)
	}
	if sq.distinct {
		var kept []outRow
		for _, o := range out {
			dup := false
			for _, k := range kept {
				dup = dup || valuesEqual(k.vals, o.vals)
			}
			if !dup {
				kept = append(kept, o)
			}
		}
		out = kept
	}
	sort.SliceStable(out, func(i, j int) bool {
		for k, key := range sq.order {
			if c := reldb.Compare(out[i].keys[k], out[j].keys[k]); c != 0 {
				return (c < 0) != key.desc
			}
		}
		return false
	})
	out = out[min(sq.offset, len(out)):]
	if sq.limit >= 0 && sq.limit < len(out) {
		out = out[:sq.limit]
	}
	vals := make([][]reldb.Value, len(out))
	for i, o := range out {
		vals[i] = o.vals
	}
	return vals
}

// checkShape compares a generated query with its answer computed from the
// same query without GROUP BY, ORDER BY and LIMIT, and checks a grouped
// query's aggregates with TLP.
func checkShape(t *testing.T, db *reldb.DB, sq shapeQuery) {
	t.Helper()
	ref, err := db.Query(sq.oq.sql(sq.oq.cols, sq.oq.from, sq.oq.p))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := db.Query(sq.sql)
	if err != nil {
		t.Fatalf("%s: %v", sq.sql, err)
	}
	want := &reldb.Rows{Rows: sq.want(ref.Rows)}
	width := len(sq.items)
	if g, w := strings.Join(rowKeys(got, width), "\n"), strings.Join(rowKeys(want, width), "\n"); g != w {
		t.Fatalf("%s\n got:\n%s\nwant:\n%s", sq.sql, g, w)
	}
	if sq.grouped {
		checkAggregateTLP(t, db, sq)
	}
}

// checkAggregateTLP checks the partition rule on the aggregates that obey
// it: grouped by the same keys, COUNT and SUM over Q WHERE p, WHERE NOT p
// and WHERE p IS NULL add up to COUNT and SUM over Q, and MIN and MAX
// over Q are the extremes of the three. COUNT and SUM with DISTINCT do
// not add, since one value can sit in two partitions.
func checkAggregateTLP(t *testing.T, db *reldb.DB, sq shapeQuery) {
	t.Helper()
	var aggs []shapeExpr
	for _, it := range sq.items {
		if it.fn != "" && !(it.distinct && (it.fn == "COUNT" || it.fn == "SUM")) {
			aggs = append(aggs, it)
		}
	}
	if len(aggs) == 0 {
		aggs = []shapeExpr{{sql: "COUNT(*)", fn: "COUNT", star: true}}
	}
	var list, by []string
	for _, e := range sq.by {
		list = append(list, e.sql)
		by = append(by, e.sql)
	}
	for _, e := range aggs {
		list = append(list, e.sql)
	}
	groupBy := ""
	if len(by) > 0 {
		groupBy = " GROUP BY " + strings.Join(by, ", ")
	}
	nk := len(sq.by)
	run := func(pred string) [][]reldb.Value {
		t.Helper()
		sql := sq.oq.sql(strings.Join(list, ", "), sq.oq.from, pred) + groupBy
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rows.Rows
	}
	all := run("")
	var combined [][]reldb.Value
	for _, part := range []string{sq.oq.p, "NOT (" + sq.oq.p + ")", "(" + sq.oq.p + ") IS NULL"} {
		for _, row := range run(part) {
			gi := -1
			for i, c := range combined {
				if valuesEqual(c[:nk], row[:nk]) {
					gi = i
				}
			}
			if gi < 0 {
				combined = append(combined, append([]reldb.Value(nil), row...))
				continue
			}
			for j, e := range aggs {
				c := combined[gi]
				c[nk+j] = mergeAggregate(e.fn, c[nk+j], row[nk+j])
			}
		}
	}
	if len(all) != len(combined) {
		t.Fatalf("TLP: %d groups, its three partitions %d\n%s\np: %s", len(all), len(combined), sq.sql, sq.oq.p)
	}
	for _, row := range all {
		found := false
		for _, c := range combined {
			if !valuesEqual(c[:nk], row[:nk]) {
				continue
			}
			found = true
			for j, e := range aggs {
				if !aggregatesEqual(row[nk+j], c[nk+j]) {
					t.Fatalf("TLP: %s is %v over Q, %v over its partitions\n%s\np: %s",
						e.sql, row[nk+j], c[nk+j], sq.sql, sq.oq.p)
				}
			}
		}
		if !found {
			t.Fatalf("TLP: group %v is in no partition\n%s\np: %s", row[:nk], sq.sql, sq.oq.p)
		}
	}
}

// mergeAggregate combines one aggregate's values over two partitions.
func mergeAggregate(fn string, a, b reldb.Value) reldb.Value {
	switch {
	case a.IsNull():
		return b
	case b.IsNull():
		return a
	}
	switch fn {
	case "COUNT", "SUM":
		ai, aInt := a.Interface().(int64)
		bi, bInt := b.Interface().(int64)
		if aInt && bInt {
			return reldb.Int(ai + bi)
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return reldb.Float(af + bf)
	case "MIN":
		if reldb.Compare(b, a) < 0 {
			return b
		}
	case "MAX":
		if reldb.Compare(b, a) > 0 {
			return b
		}
	}
	return a
}

// aggregatesEqual compares an aggregate over Q with its partitions'
// combination: of one kind and equal, floats within rounding, since a
// sum added in another order may round differently.
func aggregatesEqual(a, b reldb.Value) bool {
	if fmt.Sprintf("%T", a.Interface()) != fmt.Sprintf("%T", b.Interface()) {
		return false
	}
	af, aok := a.Interface().(float64)
	bf, bok := b.Interface().(float64)
	if aok && bok && !math.IsNaN(af) && !math.IsNaN(bf) {
		return math.Abs(af-bf) <= 1e-9*math.Max(math.Abs(af), math.Abs(bf))
	}
	return reldb.Compare(a, b) == 0
}

// FuzzShapeOracles checks GROUP BY, HAVING, aggregates with and without
// DISTINCT, SELECT DISTINCT, ORDER BY on columns, aliases and ordinals,
// and LIMIT and OFFSET on generated queries over tables with a REAL
// column (NaN, -0.0, 1.5, 1e300). Each answer is computed again from the
// same query without GROUP BY, ORDER BY and LIMIT, grouped aggregates
// obey TLP, and the database's RELC copy gives the same rows in the same
// order. It shares FuzzPushdownOracles' query generator for FROM and
// WHERE. Each input seeds one database, of up to 20 rows a table so that
// ORDER BY sorts enough tied rows to tell a stable order from an unstable
// one, and 30 queries; the committed corpus in
// testdata/fuzz/FuzzShapeOracles runs with every go test.
func FuzzShapeOracles(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		db := oracleDB(t, r, shapeTables, 20)
		relc := relcCopy(t, db)
		g := &queryGen{r: r, tables: shapeTables}
		for i := 0; i < 30; i++ {
			sq := g.shape(g.query())
			checkShape(t, db, sq)
			checkRELC(t, db, relc, sq.sql, len(sq.items))
		}
	})
}
