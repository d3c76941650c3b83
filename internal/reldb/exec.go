package reldb

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
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

// evalEnv evaluates bound expressions on one row, or on one group of a
// grouped SELECT.
type evalEnv struct {
	row   []Value
	group [][]Value  // the current group's rows
	slots []*aggSlot // the SELECT's aggregates
	aggs  []Value    // per slot, its value over group once done
	done  []bool     // per slot, whether aggs holds it for this group
}

// startGroup makes g the current group; its aggregates are computed
// when first read.
func (e *evalEnv) startGroup(g group) {
	e.row, e.group = g.first, g.rows
	clear(e.done)
}

func (e *evalEnv) eval(n *bexpr) (Value, error) {
	switch n.op {
	case opLit:
		return n.v, nil
	case opCol:
		return e.row[n.pos], nil
	case opAgg:
		if !e.done[n.pos] {
			v, err := e.aggregate(e.slots[n.pos])
			if err != nil {
				return Null, err
			}
			e.aggs[n.pos], e.done[n.pos] = v, true
		}
		return e.aggs[n.pos], nil
	case opNot, opNeg:
		return e.evalUnary(n)
	case opAnd, opOr:
		return e.evalLogic(n)
	case opIn:
		return e.evalIn(n)
	case opIsNull:
		v, err := e.eval(n.args[0])
		if err != nil {
			return Null, err
		}
		return Bool(v.IsNull() != n.not), nil
	case opBetween:
		v, err := e.eval(n.args[0])
		if err != nil {
			return Null, err
		}
		lo, err := e.eval(n.args[1])
		if err != nil {
			return Null, err
		}
		hi, err := e.eval(n.args[2])
		if err != nil {
			return Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null, nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		return Bool(in != n.not), nil
	case opCall:
		if n.fn == nil {
			return Null, fmt.Errorf("reldb: unknown function %q", n.text)
		}
		args := make([]Value, len(n.args))
		for i, a := range n.args {
			v, err := e.eval(a)
			if err != nil {
				return Null, err
			}
			args[i] = v
		}
		return n.fn(args)
	default:
		return e.evalBinary(n)
	}
}

func (e *evalEnv) evalUnary(n *bexpr) (Value, error) {
	v, err := e.eval(n.args[0])
	if err != nil || v.IsNull() {
		return Null, err
	}
	if n.op == opNot {
		b, _ := v.AsBool()
		return Bool(!b), nil
	}
	if v.kind == kindInt {
		return Int(-v.i), nil
	}
	if f, ok := v.AsFloat(); ok {
		return Float(-f), nil
	}
	return Null, fmt.Errorf("reldb: cannot negate %s", v)
}

// evalLogic is AND and OR in three-valued logic, short-circuiting.
func (e *evalEnv) evalLogic(n *bexpr) (Value, error) {
	and := n.op == opAnd
	l, err := e.eval(n.args[0])
	if err != nil {
		return Null, err
	}
	lb, lok := l.AsBool()
	if lok && lb != and {
		return Bool(lb), nil // false AND x, true OR x
	}
	r, err := e.eval(n.args[1])
	if err != nil {
		return Null, err
	}
	rb, rok := r.AsBool()
	switch {
	case lok && rok:
		return Bool(rb), nil // lb is the identity
	case rok && rb != and:
		return Bool(rb), nil
	}
	return Null, nil
}

func (e *evalEnv) evalBinary(n *bexpr) (Value, error) {
	l, err := e.eval(n.args[0])
	if err != nil {
		return Null, err
	}
	r, err := e.eval(n.args[1])
	if err != nil {
		return Null, err
	}
	if l.IsNull() || r.IsNull() {
		return Null, nil
	}
	switch n.op {
	case opEq:
		return Bool(Compare(l, r) == 0), nil
	case opNe:
		return Bool(Compare(l, r) != 0), nil
	case opLt:
		return Bool(Compare(l, r) < 0), nil
	case opLe:
		return Bool(Compare(l, r) <= 0), nil
	case opGt:
		return Bool(Compare(l, r) > 0), nil
	case opGe:
		return Bool(Compare(l, r) >= 0), nil
	case opLike:
		ls, _ := l.AsText()
		rs, _ := r.AsText()
		return Bool(like(ls, rs)), nil
	case opConcat:
		ls, _ := l.AsText()
		rs, _ := r.AsText()
		return Text(ls + rs), nil
	}
	// Arithmetic: integer when both sides are integers, with x/0 NULL.
	if l.kind == kindInt && r.kind == kindInt {
		switch n.op {
		case opAdd:
			return Int(l.i + r.i), nil
		case opSub:
			return Int(l.i - r.i), nil
		case opMul:
			return Int(l.i * r.i), nil
		default:
			if r.i == 0 {
				return Null, nil
			}
			return Int(l.i / r.i), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return Null, fmt.Errorf("reldb: non-numeric operand for %q", n.text)
	}
	switch n.op {
	case opAdd:
		return Float(lf + rf), nil
	case opSub:
		return Float(lf - rf), nil
	case opMul:
		return Float(lf * rf), nil
	default:
		if rf == 0 {
			return Null, nil
		}
		return Float(lf / rf), nil
	}
}

func (e *evalEnv) evalIn(n *bexpr) (Value, error) {
	v, err := e.eval(n.args[0])
	if err != nil || v.IsNull() {
		return Null, err
	}
	sawNull := false
	for _, le := range n.args[1:] {
		lv, err := e.eval(le)
		if err != nil {
			return Null, err
		}
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if Compare(v, lv) == 0 {
			return Bool(!n.not), nil
		}
	}
	if sawNull {
		return Null, nil
	}
	return Bool(n.not), nil
}

// aggregate computes slot s over the current group. It evaluates the
// argument row by row with one env and allocates a DISTINCT set only when
// needed: this loop runs once per aggregate per group, so per-row
// allocations here would dominate grouped-query cost.
func (e *evalEnv) aggregate(s *aggSlot) (Value, error) {
	if s.arg == nil {
		return Int(int64(len(e.group))), nil
	}
	var (
		n     int64
		sum   float64
		isum  int64
		exact = true // isum is the sum: every value an integer, no overflow
		best  Value
		seen  map[string]bool
		kbuf  []byte
	)
	sub := evalEnv{}
	for _, row := range e.group {
		sub.row = row
		v, err := sub.eval(s.arg)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if s.distinct {
			if seen == nil {
				seen = make(map[string]bool, len(e.group))
			}
			kbuf = v.appendKey(kbuf[:0])
			if seen[string(kbuf)] {
				continue
			}
			seen[string(kbuf)] = true
		}
		n++
		switch s.fn {
		case aggSum, aggAvg:
			f, ok := v.AsFloat()
			if !ok {
				return Null, fmt.Errorf("reldb: %s over non-numeric value %s", s.name, v)
			}
			sum += f
			if exact {
				next := isum + v.i
				exact = v.kind == kindInt && (next > isum) == (v.i > 0)
				isum = next
			}
		case aggMin, aggMax:
			if c := Compare(v, best); n == 1 || (s.fn == aggMin && c < 0) || (s.fn == aggMax && c > 0) {
				best = v
			}
		}
	}
	switch {
	case s.fn == aggCount:
		return Int(n), nil
	case s.fn == aggMin || s.fn == aggMax || n == 0:
		return best, nil // NULL over no values
	case s.fn == aggAvg:
		return Float(sum / float64(n)), nil
	case exact:
		return Int(isum), nil
	}
	return Float(sum), nil
}

// ---- SELECT execution ----

// checkEvery is how many rows, or probed join pairs, the executor handles
// between two looks at its context: a look costs an interface call and,
// on a cancellable context, a mutex, which once per 1,024 rows is lost in
// the per-row work.
const checkEvery = 1024

// stopper counts the rows an execution handles and looks at its context
// once every checkEvery of them. One stopper serves the whole execution,
// so the count runs on from one operator to the next.
type stopper struct {
	ctx context.Context
	n   int
}

// tick counts one row; once per checkEvery rows it returns the context's
// error.
func (st *stopper) tick() error {
	if st.n++; st.n < checkEvery {
		return nil
	}
	st.n = 0
	return st.ctx.Err()
}

// execSelect binds and runs one SELECT, stopping with ctx's error once
// ctx is done. Callers (Query, Stmt.QueryContext) hold db.mu for reading.
func (db *DB) execSelect(ctx context.Context, s *SelectStmt) (*Rows, error) {
	b, err := db.bind(s)
	if err != nil {
		return nil, err
	}
	return execSelectPlan(ctx, b, nil)
}

// execSelectPlan runs a bound SELECT. With a non-nil plan (EXPLAIN ANALYZE)
// every pipeline stage is timed and row-counted into the matching plan
// node; with a nil plan each probe call is a nil check and nothing more,
// so the plain-query path pays no measurable overhead for the
// instrumentation. The filter, join, grouping and emit loops tick one
// stopper and return ctx's error once ctx is done.
func execSelectPlan(ctx context.Context, b *boundSelect, pl *selectPlan) (*Rows, error) {
	if b.err != nil {
		return nil, b.err
	}
	s, from := b.s, b.from
	stop := &stopper{ctx: ctx}
	var rows [][]Value
	var err error
	if s.From == nil {
		// Expression-only select: SELECT 1+1.
		prb := pl.probeScan()
		rows = [][]Value{nil}
		prb.done(0, 1, 1)
	} else {
		prb := pl.probeScan()
		read := b.lookups[0].rows(from.tables[0])
		if b.scan == nil {
			rows = make([][]Value, len(read))
			copy(rows, read)
			prb.done(len(read), len(rows), 1)
		} else {
			prb.done(len(read), len(read), 1)
			prb := pl.probeScanFilter()
			if rows, err = filterRows(stop, read, b.scan); err != nil {
				return nil, err
			}
			prb.done(len(read), len(rows), 1)
		}
		for i, j := range s.Joins {
			jt := from.tables[i+1]
			read := b.lookups[i+1].rows(jt)
			right := read
			if b.right[i] != nil {
				prb := pl.probeRightFilter(i)
				if right, err = filterRows(stop, read, b.right[i]); err != nil {
					return nil, err
				}
				prb.done(len(read), len(right), 1)
			}
			in := len(rows)
			prb := pl.probeJoin(i)
			var scanned OpStats
			rows, scanned, err = join(stop, from.ends[i], rows, right, j.Left, jt, b.on[i], b.joins[i])
			if err != nil {
				return nil, err
			}
			prb.done(in, len(rows), 1)
			if b.right[i] != nil {
				// The pushed filter read the table once; the join read
				// what it kept.
				scanned = OpStats{RowsIn: len(read), RowsOut: len(read), Loops: 1}
			}
			pl.scannedRight(i, scanned)
		}
	}

	// What is left of WHERE after placement runs on the joined rows.
	if b.where != nil {
		prb := pl.probeFilter()
		in := len(rows)
		if rows, err = filterRows(stop, rows, b.where); err != nil {
			return nil, err
		}
		prb.done(in, len(rows), 1)
	}

	// Each output row's values are a slice of one flat array, and its
	// ORDER BY keys sit at keys[i*len(b.order):].
	var vals [][]Value
	var valsBuf, keys []Value
	initEmit := func(n int) {
		vals = make([][]Value, 0, n)
		valsBuf = make([]Value, 0, n*len(b.items))
		keys = make([]Value, 0, n*len(b.order))
	}
	emit := func(env *evalEnv) error {
		start := len(valsBuf)
		for _, x := range b.project {
			v, err := env.eval(x)
			if err != nil {
				return err
			}
			valsBuf = append(valsBuf, v)
		}
		row := valsBuf[start:len(valsBuf):len(valsBuf)]
		for _, k := range b.order {
			if k.item >= 0 {
				keys = append(keys, row[k.item])
				continue
			}
			v, err := env.eval(k.expr)
			if err != nil {
				return err
			}
			keys = append(keys, v)
		}
		vals = append(vals, row)
		return nil
	}

	prb := pl.probeOutput()
	in := len(rows)
	env := evalEnv{}
	if b.grouped {
		groups, err := groupRows(stop, rows, b.groupBy, len(from.sch.names))
		if err != nil {
			return nil, err
		}
		initEmit(len(groups))
		env.slots = b.slots
		env.aggs = make([]Value, len(b.slots))
		env.done = make([]bool, len(b.slots))
		for _, g := range groups {
			if err := stop.tick(); err != nil {
				return nil, err
			}
			env.startGroup(g)
			if ok, err := env.holds(b.having); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			if err := emit(&env); err != nil {
				return nil, err
			}
		}
	} else {
		initEmit(len(rows))
		for _, row := range rows {
			if err := stop.tick(); err != nil {
				return nil, err
			}
			env.row = row
			if err := emit(&env); err != nil {
				return nil, err
			}
		}
	}
	prb.done(in, len(vals), 1)

	// perm lists the output rows in the order they leave, once DISTINCT
	// or ORDER BY needs one.
	var perm []int
	if s.Distinct {
		prb := pl.probeDistinct()
		in := len(vals)
		seen := make(map[string]bool, len(vals))
		perm = make([]int, 0, len(vals))
		var buf []byte
		for i, r := range vals {
			buf = buf[:0]
			for _, v := range r {
				buf = v.appendKey(buf)
				buf = append(buf, '\x01')
			}
			// The m[string(buf)] lookup is allocation-free; only newly seen
			// rows pay for a retained key string.
			if !seen[string(buf)] {
				seen[string(buf)] = true
				perm = append(perm, i)
			}
		}
		prb.done(in, len(perm), 1)
	}

	// ORDER BY sorts positions, and breaks ties by position, so equal
	// keys keep their input order without a stable sort.
	if nk := len(b.order); nk > 0 {
		prb := pl.probeSort()
		if perm == nil {
			perm = make([]int, len(vals))
			for i := range perm {
				perm[i] = i
			}
		}
		slices.SortFunc(perm, func(x, y int) int {
			kx, ky := keys[x*nk:x*nk+nk], keys[y*nk:y*nk+nk]
			for k, ob := range b.order {
				if c := Compare(kx[k], ky[k]); c != 0 {
					if ob.desc {
						return -c
					}
					return c
				}
			}
			return cmp.Compare(x, y)
		})
		prb.done(len(perm), len(perm), 1)
	}

	n := len(vals)
	if perm != nil {
		n = len(perm)
	}
	lo, hi := 0, n
	if s.Limit >= 0 || s.Offset > 0 {
		prb := pl.probeLimit()
		lo = min(s.Offset, n)
		if s.Limit >= 0 {
			hi = min(lo+s.Limit, n)
		}
		prb.done(n, hi-lo, 1)
	}

	out := &Rows{Columns: make([]string, len(b.items))}
	for i, it := range b.items {
		out.Columns[i] = itemName(it)
	}
	if perm == nil {
		out.Rows = vals[lo:hi:hi]
		return out, nil
	}
	out.Rows = make([][]Value, hi-lo)
	for i, p := range perm[lo:hi] {
		out.Rows[i] = vals[p]
	}
	return out, nil
}

// filterRows returns, in order, the rows on which pred is true.
func filterRows(stop *stopper, rows [][]Value, pred *bexpr) ([][]Value, error) {
	out := rows[:0:0]
	env := evalEnv{}
	for _, row := range rows {
		if err := stop.tick(); err != nil {
			return nil, err
		}
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
func (e *evalEnv) holds(x *bexpr) (bool, error) {
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

// groupRows splits rows, each width values wide, into groups by the
// values of by, in first-seen order.
func groupRows(stop *stopper, rows [][]Value, by []*bexpr, width int) ([]group, error) {
	if len(by) == 0 {
		// Single group over everything; present even when empty so COUNT(*)
		// returns 0. A bare column reads the first row, as in a GROUP BY
		// group, or NULL when there is none.
		if len(rows) > 0 {
			return []group{{first: rows[0], rows: rows}}, nil
		}
		return []group{{first: make([]Value, width)}}, nil
	}
	// Groups are kept in a slice in first-seen order; the map only carries
	// key -> index, so the per-row lookup path is allocation-free (one
	// reused key buffer, m[string(buf)] indexing) and only new groups pay
	// for a retained key string.
	idx := make(map[string]int, 16)
	var out []group
	env := evalEnv{}
	var buf []byte
	for _, row := range rows {
		if err := stop.tick(); err != nil {
			return nil, err
		}
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

// join combines the current intermediate rows, each leftWidth values
// wide, with right, the rows of table jt that its pushed filter kept (all
// of them when it has none). on is what is left of the ON clause after
// placement, bound to the joined row, nil when nothing is. With eq it
// runs a hash join on eq's columns: it probes jt's stored index when
// eq.index is set, and otherwise builds a hash table of right. Without eq
// it runs a nested loop. Either way each left row meets its candidate
// right rows in row order and keeps those on which on holds; under a LEFT
// join a left row that keeps none is padded with NULLs. scanned is how
// the join read its right side, for EXPLAIN ANALYZE: the rows the index
// probes fetched, one loop per probe; the rows hashed once; or every row
// once per left row. It ticks stop once per left row and once per pair it
// probes: one nested-loop left row meets every right row.
func join(stop *stopper, leftWidth int, left, right [][]Value, leftJoin bool, jt *Table, on *bexpr, eq *equiJoin) (out [][]Value, scanned OpStats, err error) {
	combine := func(l []Value, r []Value) []Value {
		row := make([]Value, 0, leftWidth+len(jt.Cols))
		row = append(row, l...)
		row = append(row, r...)
		return row
	}
	nullRight := make([]Value, len(jt.Cols))
	env := evalEnv{}
	matched := false
	try := func(lrow, rrow []Value) error {
		if err := stop.tick(); err != nil {
			return err
		}
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
		if err := stop.tick(); err != nil {
			return nil, scanned, err
		}
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
		if !matched && leftJoin {
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
