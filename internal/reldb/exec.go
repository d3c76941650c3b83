package reldb

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// schema describes the columns of an intermediate joined row: one entry per
// position, qualified by the table label (alias or name).
type schema struct {
	labels []string // table label per position
	names  []string // lower-cased column name per position
}

func newSchema() *schema { return &schema{} }

func (s *schema) addTable(label string, t *Table) {
	for _, c := range t.Cols {
		s.labels = append(s.labels, strings.ToLower(label))
		s.names = append(s.names, strings.ToLower(c.Name))
	}
}

// resolve finds the position of a (possibly qualified) column reference.
func (s *schema) resolve(table, name string) (int, error) {
	table = strings.ToLower(table)
	name = strings.ToLower(name)
	found := -1
	for i := range s.names {
		if s.names[i] != name {
			continue
		}
		if table != "" && s.labels[i] != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("reldb: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("reldb: no column %s.%s", table, name)
		}
		return 0, fmt.Errorf("reldb: no column %q", name)
	}
	return found, nil
}

// evalEnv is the evaluation context for one row (or one group).
type evalEnv struct {
	db     *DB
	schema *schema
	row    []Value
	group  [][]Value // non-nil while evaluating aggregate expressions
}

func (e *evalEnv) eval(x Expr) (Value, error) {
	switch n := x.(type) {
	case *Lit:
		return n.V, nil
	case *ColRef:
		if e.schema == nil {
			return Null, fmt.Errorf("reldb: column %q referenced outside a row context", n.Name)
		}
		pos, err := e.schema.resolve(n.Table, n.Name)
		if err != nil {
			return Null, err
		}
		return e.row[pos], nil
	case *Unary:
		return e.evalUnary(n)
	case *Binary:
		return e.evalBinary(n)
	case *InExpr:
		return e.evalIn(n)
	case *IsNullExpr:
		v, err := e.eval(n.X)
		if err != nil {
			return Null, err
		}
		res := v.IsNull()
		if n.Not {
			res = !res
		}
		return Bool(res), nil
	case *BetweenExpr:
		v, err := e.eval(n.X)
		if err != nil {
			return Null, err
		}
		lo, err := e.eval(n.Lo)
		if err != nil {
			return Null, err
		}
		hi, err := e.eval(n.Hi)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null, nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if n.Not {
			in = !in
		}
		return Bool(in), nil
	case *Call:
		if aggregateFns[n.Fn] {
			return e.evalAggregate(n)
		}
		return e.evalScalarCall(n)
	default:
		return Null, fmt.Errorf("reldb: cannot evaluate %T", x)
	}
}

func (e *evalEnv) evalUnary(n *Unary) (Value, error) {
	v, err := e.eval(n.X)
	if err != nil {
		return Null, err
	}
	switch n.Op {
	case "NOT":
		if v.IsNull() {
			return Null, nil
		}
		b, _ := v.AsBool()
		return Bool(!b), nil
	case "-":
		if v.IsNull() {
			return Null, nil
		}
		if v.kind == kindInt {
			return Int(-v.i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return Float(-f), nil
		}
		return Null, fmt.Errorf("reldb: cannot negate %s", v)
	default:
		return Null, fmt.Errorf("reldb: unknown unary op %q", n.Op)
	}
}

func (e *evalEnv) evalBinary(n *Binary) (Value, error) {
	// AND/OR get three-valued logic with short-circuiting.
	if n.Op == "AND" || n.Op == "OR" {
		l, err := e.eval(n.L)
		if err != nil {
			return Null, err
		}
		lb, lok := l.AsBool()
		if n.Op == "AND" && lok && !lb {
			return Bool(false), nil
		}
		if n.Op == "OR" && lok && lb {
			return Bool(true), nil
		}
		r, err := e.eval(n.R)
		if err != nil {
			return Null, err
		}
		rb, rok := r.AsBool()
		if n.Op == "AND" {
			if lok && rok {
				return Bool(lb && rb), nil
			}
			if (lok && !lb) || (rok && !rb) {
				return Bool(false), nil
			}
			return Null, nil
		}
		if lok && rok {
			return Bool(lb || rb), nil
		}
		if (lok && lb) || (rok && rb) {
			return Bool(true), nil
		}
		return Null, nil
	}

	l, err := e.eval(n.L)
	if err != nil {
		return Null, err
	}
	r, err := e.eval(n.R)
	if err != nil {
		return Null, err
	}
	switch n.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		c := Compare(l, r)
		var res bool
		switch n.Op {
		case "=":
			res = c == 0
		case "!=":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return Bool(res), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		ls, _ := l.AsText()
		rs, _ := r.AsText()
		return Bool(like(ls, rs)), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		ls, _ := l.AsText()
		rs, _ := r.AsText()
		return Text(ls + rs), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		// Integer arithmetic when both sides are ints (except /0 guard).
		if l.kind == kindInt && r.kind == kindInt {
			switch n.Op {
			case "+":
				return Int(l.i + r.i), nil
			case "-":
				return Int(l.i - r.i), nil
			case "*":
				return Int(l.i * r.i), nil
			case "/":
				if r.i == 0 {
					return Null, nil
				}
				return Int(l.i / r.i), nil
			}
		}
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return Null, fmt.Errorf("reldb: non-numeric operand for %q", n.Op)
		}
		switch n.Op {
		case "+":
			return Float(lf + rf), nil
		case "-":
			return Float(lf - rf), nil
		case "*":
			return Float(lf * rf), nil
		default:
			if rf == 0 {
				return Null, nil
			}
			return Float(lf / rf), nil
		}
	default:
		return Null, fmt.Errorf("reldb: unknown operator %q", n.Op)
	}
}

func (e *evalEnv) evalIn(n *InExpr) (Value, error) {
	v, err := e.eval(n.X)
	if err != nil {
		return Null, err
	}
	if v.IsNull() {
		return Null, nil
	}
	sawNull := false
	for _, le := range n.List {
		lv, err := e.eval(le)
		if err != nil {
			return Null, err
		}
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if Compare(v, lv) == 0 {
			return Bool(!n.Not), nil
		}
	}
	if sawNull {
		return Null, nil
	}
	return Bool(n.Not), nil
}

func (e *evalEnv) evalScalarCall(n *Call) (Value, error) {
	fn, ok := e.db.funcs[n.Fn]
	if !ok {
		return Null, fmt.Errorf("reldb: unknown function %q", n.Fn)
	}
	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := e.eval(a)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	return fn(args)
}

// evalAggregate computes an aggregate over e.group.
func (e *evalEnv) evalAggregate(n *Call) (Value, error) {
	if e.group == nil {
		return Null, fmt.Errorf("reldb: aggregate %s outside grouped context", n.Fn)
	}
	if n.Star {
		if n.Fn != "COUNT" {
			return Null, fmt.Errorf("reldb: %s(*) is not valid", n.Fn)
		}
		return Int(int64(len(e.group))), nil
	}
	if len(n.Args) != 1 {
		return Null, fmt.Errorf("reldb: %s takes one argument", n.Fn)
	}
	// Evaluate the argument per group row. One env is reused across the
	// group and the DISTINCT set is only allocated when needed: this loop
	// runs once per aggregate per group, so per-iteration allocations here
	// dominate grouped-query cost.
	vals := make([]Value, 0, len(e.group))
	var seen map[string]bool
	var kbuf []byte
	sub := evalEnv{db: e.db, schema: e.schema}
	for _, row := range e.group {
		sub.row = row
		v, err := sub.eval(n.Args[0])
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if n.Distinct {
			if seen == nil {
				seen = make(map[string]bool, len(e.group))
			}
			kbuf = v.appendKey(kbuf[:0])
			if seen[string(kbuf)] {
				continue
			}
			seen[string(kbuf)] = true
		}
		vals = append(vals, v)
	}
	switch n.Fn {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null, nil
		}
		var sum float64
		allInt := true
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return Null, fmt.Errorf("reldb: %s over non-numeric value %s", n.Fn, v)
			}
			if v.kind != kindInt {
				allInt = false
			}
			sum += f
		}
		if n.Fn == "AVG" {
			return Float(sum / float64(len(vals))), nil
		}
		if allInt && sum == math.Trunc(sum) {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (n.Fn == "MIN" && c < 0) || (n.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return Null, fmt.Errorf("reldb: unknown aggregate %q", n.Fn)
	}
}

// ---- SELECT execution ----

// execSelect runs one SELECT plan. Callers (Query, Stmt.Query) hold
// db.mu for reading.
func (db *DB) execSelect(s *SelectStmt) (*Rows, error) {
	return db.execSelectPlan(s, nil)
}

// execSelectPlan runs one SELECT. With a non-nil plan (EXPLAIN ANALYZE)
// every pipeline stage is timed and row-counted into the matching plan
// node; with a nil plan each probe call is a nil check and nothing more,
// so the plain-query path pays no measurable overhead for the
// instrumentation.
func (db *DB) execSelectPlan(s *SelectStmt, pl *selectPlan) (*Rows, error) {
	a, err := db.planAccess(s)
	if err != nil {
		return nil, err
	}
	from, pf := a.from, a.pf
	sch := from.sch
	var rows [][]Value
	if s.From == nil {
		// Expression-only select: SELECT 1+1.
		prb := pl.probeScan()
		rows = [][]Value{nil}
		prb.done(0, 1, 1)
	} else {
		prb := pl.probeScan()
		read := a.lookups[0].rows(from.tables[0])
		if pf.scan == nil {
			rows = make([][]Value, len(read))
			copy(rows, read)
			prb.done(len(read), len(rows), 1)
		} else {
			prb.done(len(read), len(read), 1)
			prb := pl.probeScanFilter()
			if rows, err = db.filterRows(from.only(0), read, pf.scan); err != nil {
				return nil, err
			}
			prb.done(len(read), len(rows), 1)
		}
		for i, j := range s.Joins {
			jt := from.tables[i+1]
			read := a.lookups[i+1].rows(jt)
			right := read
			if pf.right[i] != nil {
				prb := pl.probeRightFilter(i)
				if right, err = db.filterRows(from.only(i+1), read, pf.right[i]); err != nil {
					return nil, err
				}
				prb.done(len(read), len(right), 1)
			}
			in := len(rows)
			prb := pl.probeJoin(i)
			var scanned OpStats
			rows, scanned, err = db.join(from.upTo(i+1), rows, right, j, jt, pf.on[i], a.joins[i])
			if err != nil {
				return nil, err
			}
			prb.done(in, len(rows), 1)
			if pf.right[i] != nil {
				// The pushed filter read the table once; the join read
				// what it kept.
				scanned = OpStats{RowsIn: len(read), RowsOut: len(read), Loops: 1}
			}
			pl.scannedRight(i, scanned)
		}
	}

	// What is left of WHERE after placement runs on the joined rows.
	if pf.where != nil {
		if hasAggregate(pf.where) {
			return nil, fmt.Errorf("reldb: aggregates are not allowed in WHERE")
		}
		prb := pl.probeFilter()
		in := len(rows)
		if rows, err = db.filterRows(sch, rows, pf.where); err != nil {
			return nil, err
		}
		prb.done(in, len(rows), 1)
	}

	// Expand stars into explicit items.
	items, err := expandStars(s.Items, sch)
	if err != nil {
		return nil, err
	}

	grouped := len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(items) ||
		(len(s.OrderBy) > 0 && anyAggregateOrder(s.OrderBy))

	out := &Rows{}
	for _, it := range items {
		out.Columns = append(out.Columns, itemName(it))
	}

	type outRow struct {
		vals []Value
		keys []Value // order-by keys
	}
	var result []outRow
	var valsBuf, keysBuf []Value
	// initEmit pre-sizes the output buffers once the emit count is known:
	// each emit call then appends into flat backing arrays and slices out
	// its row, instead of allocating fresh vals/keys slices per output row.
	initEmit := func(n int) {
		result = make([]outRow, 0, n)
		valsBuf = make([]Value, 0, n*len(items))
		keysBuf = make([]Value, 0, n*len(s.OrderBy))
	}

	aliasExpr := func(e Expr) Expr {
		// ORDER BY may reference a select alias or a 1-based ordinal.
		if c, ok := e.(*ColRef); ok && c.Table == "" {
			for _, it := range items {
				if strings.EqualFold(it.Alias, c.Name) {
					return it.Expr
				}
			}
		}
		if l, ok := e.(*Lit); ok {
			if n, ok2 := l.V.AsInt(); ok2 && n >= 1 && int(n) <= len(items) {
				return items[n-1].Expr
			}
		}
		return e
	}

	emit := func(env *evalEnv) error {
		vStart := len(valsBuf)
		for _, it := range items {
			v, err := env.eval(it.Expr)
			if err != nil {
				return err
			}
			valsBuf = append(valsBuf, v)
		}
		kStart := len(keysBuf)
		for _, ob := range s.OrderBy {
			v, err := env.eval(aliasExpr(ob.Expr))
			if err != nil {
				return err
			}
			keysBuf = append(keysBuf, v)
		}
		result = append(result, outRow{
			vals: valsBuf[vStart:len(valsBuf):len(valsBuf)],
			keys: keysBuf[kStart:len(keysBuf):len(keysBuf)],
		})
		return nil
	}

	if grouped {
		prb := pl.probeOutput()
		in := len(rows)
		groups, err := groupRows(db, sch, rows, s.GroupBy)
		if err != nil {
			return nil, err
		}
		initEmit(len(groups))
		env := evalEnv{db: db, schema: sch}
		for _, g := range groups {
			env.row, env.group = g.first, g.rows
			if s.Having != nil {
				v, err := env.eval(s.Having)
				if err != nil {
					return nil, err
				}
				if b, ok := v.AsBool(); !ok || !b {
					continue
				}
			}
			if err := emit(&env); err != nil {
				return nil, err
			}
		}
		prb.done(in, len(result), 1)
	} else {
		prb := pl.probeOutput()
		in := len(rows)
		initEmit(len(rows))
		env := evalEnv{db: db, schema: sch}
		for _, row := range rows {
			env.row = row
			if err := emit(&env); err != nil {
				return nil, err
			}
		}
		prb.done(in, len(result), 1)
	}

	// DISTINCT.
	if s.Distinct {
		prb := pl.probeDistinct()
		in := len(result)
		seen := make(map[string]bool, len(result))
		dedup := result[:0:0]
		var buf []byte
		for _, r := range result {
			buf = buf[:0]
			for _, v := range r.vals {
				buf = v.appendKey(buf)
				buf = append(buf, '\x01')
			}
			// The m[string(buf)] lookup is allocation-free; only newly seen
			// rows pay for a retained key string.
			if !seen[string(buf)] {
				seen[string(buf)] = true
				dedup = append(dedup, r)
			}
		}
		result = dedup
		prb.done(in, len(result), 1)
	}

	// ORDER BY (stable, so ties preserve input order).
	if len(s.OrderBy) > 0 {
		prb := pl.probeSort()
		sort.SliceStable(result, func(i, j int) bool {
			for k, ob := range s.OrderBy {
				c := Compare(result[i].keys[k], result[j].keys[k])
				if c == 0 {
					continue
				}
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		prb.done(len(result), len(result), 1)
	}

	// OFFSET / LIMIT.
	if s.Limit >= 0 || s.Offset > 0 {
		prb := pl.probeLimit()
		in := len(result)
		if s.Offset > 0 {
			if s.Offset >= len(result) {
				result = nil
			} else {
				result = result[s.Offset:]
			}
		}
		if s.Limit >= 0 && s.Limit < len(result) {
			result = result[:s.Limit]
		}
		prb.done(in, len(result), 1)
	}

	out.Rows = make([][]Value, len(result))
	for i, r := range result {
		out.Rows[i] = r.vals
	}
	return out, nil
}

// filterRows returns, in order, the rows on which pred is true.
func (db *DB) filterRows(sch *schema, rows [][]Value, pred Expr) ([][]Value, error) {
	out := rows[:0:0]
	env := evalEnv{db: db, schema: sch}
	for _, row := range rows {
		env.row = row
		ok, err := env.holds(pred)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, row)
		}
	}
	return out, nil
}

// holds reports whether x is true on e.row; a nil x always holds.
func (e *evalEnv) holds(x Expr) (bool, error) {
	if x == nil {
		return true, nil
	}
	v, err := e.eval(x)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	return ok && b, nil
}

type group struct {
	first []Value
	rows  [][]Value
}

func groupRows(db *DB, sch *schema, rows [][]Value, by []Expr) ([]group, error) {
	if len(by) == 0 {
		// Single group over everything; present even when empty so COUNT(*)
		// returns 0.
		return []group{{first: nil, rows: rows}}, nil
	}
	// Groups are kept in a slice in first-seen order; the map only carries
	// key -> index, so the per-row lookup path is allocation-free (one
	// reused key buffer, m[string(buf)] indexing) and only new groups pay
	// for a retained key string.
	idx := make(map[string]int, 16)
	var out []group
	env := evalEnv{db: db, schema: sch}
	var buf []byte
	for _, row := range rows {
		env.row = row
		buf = buf[:0]
		for _, e := range by {
			v, err := env.eval(e)
			if err != nil {
				return nil, err
			}
			buf = v.appendKey(buf)
			buf = append(buf, '\x01')
		}
		gi, ok := idx[string(buf)]
		if !ok {
			gi = len(out)
			idx[string(buf)] = gi
			out = append(out, group{first: row})
		}
		out[gi].rows = append(out[gi].rows, row)
	}
	return out, nil
}

func expandStars(items []SelectItem, sch *schema) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		qual := strings.ToLower(it.Table)
		matched := false
		for i := range sch.names {
			if qual != "" && sch.labels[i] != qual {
				continue
			}
			matched = true
			out = append(out, SelectItem{
				Expr:  &ColRef{Table: sch.labels[i], Name: sch.names[i]},
				Alias: sch.names[i],
			})
		}
		if qual != "" && !matched {
			return nil, fmt.Errorf("reldb: no table %q for %s.*", it.Table, it.Table)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("reldb: empty select list")
	}
	return out, nil
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColRef); ok {
		return c.Name
	}
	if c, ok := it.Expr.(*Call); ok {
		return strings.ToLower(c.Fn)
	}
	return "expr"
}

func anyAggregate(items []SelectItem) bool {
	for _, it := range items {
		if hasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func anyAggregateOrder(obs []OrderItem) bool {
	for _, ob := range obs {
		if hasAggregate(ob.Expr) {
			return true
		}
	}
	return false
}

// join combines the current intermediate rows with right, the rows of
// table jt that its pushed filter kept (all of them when it has none);
// newSch is the joined row's schema, the current one followed by jt's
// columns. on is what is left of the ON clause after placement, nil when
// nothing is. With eq it runs a hash join on eq's columns: it probes jt's
// stored index when eq.index is set, and otherwise builds a hash table of
// right. Without eq it runs a nested loop. Either way each left row meets
// its candidate right rows in row order and keeps those on which on
// holds. scanned is how the join read its right side, for EXPLAIN
// ANALYZE: the rows the index probes fetched, one loop per probe; the
// rows hashed once; or every row once per left row.
func (db *DB) join(newSch *schema, left, right [][]Value, j JoinClause, jt *Table, on Expr, eq *equiJoin) (out [][]Value, scanned OpStats, err error) {
	leftWidth := len(newSch.names) - len(jt.Cols)
	combine := func(l []Value, r []Value) []Value {
		row := make([]Value, 0, leftWidth+len(jt.Cols))
		row = append(row, l...)
		row = append(row, r...)
		return row
	}
	nullRight := make([]Value, len(jt.Cols))
	env := evalEnv{db: db, schema: newSch}
	matched := false
	try := func(lrow, rrow []Value) error {
		full := combine(lrow, rrow)
		env.row = full
		ok, err := env.holds(on)
		if ok {
			out = append(out, full)
			matched = true
		}
		return err
	}

	var built map[string][][]Value
	var kbuf []byte
	switch {
	case eq == nil:
		scanned = OpStats{RowsIn: len(right), RowsOut: len(left) * len(right), Loops: len(left)}
	case eq.index == nil:
		// Hash the right side, keyed like a stored index: NULL keys
		// never match, so they are left out.
		scanned = OpStats{RowsIn: len(right), RowsOut: len(right), Loops: 1}
		built = make(map[string][][]Value, len(right))
		for _, rrow := range right {
			v := rrow[eq.rCol]
			if v.IsNull() {
				continue
			}
			kbuf = v.appendKey(kbuf[:0])
			k := string(kbuf) // retained as the bucket key
			built[k] = append(built[k], rrow)
		}
	}
	for _, lrow := range left {
		matched = false
		switch {
		case eq == nil:
			for _, rrow := range right {
				if err := try(lrow, rrow); err != nil {
					return nil, scanned, err
				}
			}
		case !lrow[eq.lPos].IsNull():
			// Allocation-free probe: reused key buffer, m[string(buf)].
			kbuf = lrow[eq.lPos].appendKey(kbuf[:0])
			if eq.index == nil {
				for _, rrow := range built[string(kbuf)] {
					if err := try(lrow, rrow); err != nil {
						return nil, scanned, err
					}
				}
				break
			}
			ids := eq.index[string(kbuf)]
			scanned.RowsIn += len(ids)
			scanned.RowsOut += len(ids)
			scanned.Loops++
			for _, id := range ids {
				if err := try(lrow, jt.Rows[id]); err != nil {
					return nil, scanned, err
				}
			}
		}
		if !matched && j.Left {
			out = append(out, combine(lrow, nullRight))
		}
	}
	return out, scanned, nil
}

// ---- built-in scalar functions ----

func registerBuiltins(db *DB) {
	db.funcs["UPPER"] = func(args []Value) (Value, error) {
		if err := arity("UPPER", args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s, _ := args[0].AsText()
		return Text(strings.ToUpper(s)), nil
	}
	db.funcs["LOWER"] = func(args []Value) (Value, error) {
		if err := arity("LOWER", args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s, _ := args[0].AsText()
		return Text(strings.ToLower(s)), nil
	}
	db.funcs["LENGTH"] = func(args []Value) (Value, error) {
		if err := arity("LENGTH", args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s, _ := args[0].AsText()
		return Int(int64(len(s))), nil
	}
	db.funcs["SUBSTR"] = func(args []Value) (Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return Null, fmt.Errorf("reldb: SUBSTR takes 2 or 3 arguments")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s, _ := args[0].AsText()
		start64, ok := args[1].AsInt()
		if !ok {
			return Null, fmt.Errorf("reldb: SUBSTR start must be an integer")
		}
		start := int(start64) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return Text(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			n64, ok := args[2].AsInt()
			if !ok {
				return Null, fmt.Errorf("reldb: SUBSTR length must be an integer")
			}
			if e := start + int(n64); e < end {
				end = e
			}
			if end < start {
				end = start
			}
		}
		return Text(s[start:end]), nil
	}
	db.funcs["ABS"] = func(args []Value) (Value, error) {
		if err := arity("ABS", args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		if args[0].kind == kindInt {
			if args[0].i < 0 {
				return Int(-args[0].i), nil
			}
			return args[0], nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null, fmt.Errorf("reldb: ABS of non-number")
		}
		return Float(math.Abs(f)), nil
	}
	db.funcs["ROUND"] = func(args []Value) (Value, error) {
		if len(args) != 1 && len(args) != 2 {
			return Null, fmt.Errorf("reldb: ROUND takes 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null, fmt.Errorf("reldb: ROUND of non-number")
		}
		digits := int64(0)
		if len(args) == 2 {
			digits, _ = args[1].AsInt()
		}
		scale := math.Pow(10, float64(digits))
		return Float(math.Round(f*scale) / scale), nil
	}
	db.funcs["COALESCE"] = func(args []Value) (Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	}
	db.funcs["IIF"] = func(args []Value) (Value, error) {
		if err := arity("IIF", args, 3); err != nil {
			return Null, err
		}
		if b, ok := args[0].AsBool(); ok && b {
			return args[1], nil
		}
		return args[2], nil
	}
}

func arity(fn string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("reldb: %s takes %d argument(s), got %d", fn, n, len(args))
	}
	return nil
}
