package reldb

import (
	"fmt"
	"strings"
)

// boundSelect is a SELECT bound against the tables current at one
// execution: every decision about how it reads its tables, and every
// expression with its columns fixed to row positions, its operators to op
// codes and its aggregates to slots. The executor runs it and the planner
// renders it, so EXPLAIN shows what runs. What the data decides, the rows,
// the index buckets and the stored-index map a join probes, is read from
// the tables when the bound tree is made, under the same read lock the
// execution holds.
type boundSelect struct {
	s       *SelectStmt
	from    *fromClause
	pf      filterPlacement // where each conjunct runs, as written
	lookups []*indexLookup  // per table, FROM first; nil reads the whole table
	joins   []*equiJoin     // per join; nil runs a nested loop

	// The placed filters, bound; nil when there is nothing to do. A
	// pushed filter reads its own table's rows, the others the joined row.
	scan, where *bexpr
	right, on   []*bexpr // per join

	items   []SelectItem // the select list, stars expanded
	project []*bexpr     // per item
	grouped bool
	groupBy []*bexpr
	having  *bexpr
	slots   []*aggSlot // the aggregates items, HAVING and ORDER BY read
	order   []orderKey

	// err is the first expression that did not bind: an unknown or
	// ambiguous column, an unknown function, a misplaced aggregate.
	// Execution fails on it before the first row; plain EXPLAIN, which
	// evaluates nothing, still shows the plan.
	err error
}

// orderKey is one ORDER BY key: the value of select item item, named by
// alias or ordinal, or expr when item < 0.
type orderKey struct {
	item int
	expr *bexpr
	desc bool
}

// bind resolves s's tables, places its filters, chooses each table's
// read and each join's strategy, and binds every expression. It fails
// only when a table or a qualified star names no table; an expression
// that does not bind is recorded in err. The caller holds db.mu (shared
// is enough) for as long as it uses the result.
func (db *DB) bind(s *SelectStmt) (*boundSelect, error) {
	from, err := db.resolveFrom(s)
	if err != nil {
		return nil, err
	}
	items, err := expandStars(s.Items, from.sch)
	if err != nil {
		return nil, err
	}
	b := &boundSelect{s: s, from: from, pf: placeFilters(s, from), items: items,
		lookups: make([]*indexLookup, len(from.tables))}
	pf := &b.pf
	for k, t := range from.tables {
		pushed := pf.scan
		if k > 0 {
			pushed = pf.right[k-1]
		}
		b.lookups[k] = lookupFor(pushed, from.only(k), t)
	}
	for i := range s.Joins {
		eq := equiJoinPair(pf.on[i], from, i)
		if eq != nil && pf.right[i] == nil {
			// The join reads the whole table, so the table's own index on
			// the build column is the hash table a build would make.
			eq.index = from.tables[i+1].indexes[eq.rCol]
		}
		b.joins = append(b.joins, eq)
	}

	bindTo := func(bd binder, x Expr) *bexpr {
		e, err := bd.bind(x)
		if err != nil && b.err == nil {
			b.err = err
		}
		return e
	}
	if s.From != nil {
		b.scan = bindTo(binder{db: db, sch: from.only(0), clause: "WHERE"}, pf.scan)
	}
	for i := range s.Joins {
		b.right = append(b.right, bindTo(binder{db: db, sch: from.only(i + 1), clause: "WHERE"}, pf.right[i]))
		b.on = append(b.on, bindTo(binder{db: db, sch: from.upTo(i + 1), clause: "ON"}, pf.on[i]))
	}
	b.where = bindTo(binder{db: db, sch: from.sch, clause: "WHERE"}, pf.where)
	for _, e := range s.GroupBy {
		b.groupBy = append(b.groupBy, bindTo(binder{db: db, sch: from.sch, clause: "GROUP BY"}, e))
	}

	b.grouped = len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(items) ||
		(len(s.OrderBy) > 0 && anyAggregateOrder(s.OrderBy))
	out := binder{db: db, sch: from.sch, clause: "a SELECT without GROUP BY"}
	if b.grouped {
		out.slots = &b.slots
	}
	for _, it := range items {
		b.project = append(b.project, bindTo(out, it.Expr))
	}
	b.having = bindTo(out, s.Having)
	for _, ob := range s.OrderBy {
		key := orderKey{item: orderItem(ob.Expr, items), desc: ob.Desc}
		if key.item < 0 {
			key.expr = bindTo(out, ob.Expr)
		}
		b.order = append(b.order, key)
	}
	return b, nil
}

// orderItem returns the select item an ORDER BY key names, by an
// unqualified alias or a 1-based ordinal, or -1 when it names none.
func orderItem(e Expr, items []SelectItem) int {
	if c, ok := e.(*ColRef); ok && c.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.Alias, c.Name) {
				return i
			}
		}
	}
	if l, ok := e.(*Lit); ok {
		if n, ok := l.V.AsInt(); ok && n >= 1 && int(n) <= len(items) {
			return int(n - 1)
		}
	}
	return -1
}

// opcode is the operator of a bound expression.
type opcode uint8

const (
	opLit opcode = iota // v
	opCol               // the row's value at pos
	opAgg               // aggregate slot pos, over the current group
	opNot               // NOT args[0]
	opNeg               // -args[0]
	opAnd               // the binary operators: args[0] op args[1]
	opOr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opLike
	opConcat
	opAdd
	opSub
	opMul
	opDiv
	opIn      // args[0] [NOT] IN (args[1:])
	opIsNull  // args[0] IS [NOT] NULL
	opBetween // args[0] [NOT] BETWEEN args[1] AND args[2]
	opCall    // fn(args)
)

var binaryOps = map[string]opcode{
	"AND": opAnd, "OR": opOr,
	"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"LIKE": opLike, "||": opConcat,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
}

// bexpr is a bound expression: an Expr whose column references are
// positions in the row it runs on, whose operators are op codes and whose
// aggregates are slots.
type bexpr struct {
	op   opcode
	not  bool  // opIn, opIsNull, opBetween: negated
	pos  int   // opCol: position in the row; opAgg: slot
	v    Value // opLit
	args []*bexpr
	fn   ScalarFunc // opCall; nil when no function has the name
	text string     // a call's function name, a binary operator's symbol, for errors
}

// aggFn names an aggregate function.
type aggFn uint8

const (
	aggCount aggFn = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggSlot is one aggregate of a grouped SELECT. Each group accumulates it
// as the group's rows arrive (see acc).
type aggSlot struct {
	fn       aggFn
	name     string // as written, for errors
	distinct bool
	arg      *bexpr // nil for COUNT(*)
}

// same reports whether two slots compute the same aggregate of the same
// column, or are both COUNT(*), so one slot serves both.
func (s *aggSlot) same(o *aggSlot) bool {
	if s.fn != o.fn || s.distinct != o.distinct {
		return false
	}
	if s.arg == nil || o.arg == nil {
		return s.arg == nil && o.arg == nil
	}
	return s.arg.op == opCol && o.arg.op == opCol && s.arg.pos == o.arg.pos
}

// binder binds expressions that run on one kind of row.
type binder struct {
	db     *DB
	sch    *schema     // the row's columns; nil outside a row context
	clause string      // where the expressions sit, for errors
	slots  *[]*aggSlot // a grouped SELECT's slots, where aggregates may appear
}

// bind binds x; a nil x binds to nil. Only here, and in the placement
// decisions bind makes before it, are column names resolved.
func (b binder) bind(x Expr) (*bexpr, error) {
	switch n := x.(type) {
	case nil:
		return nil, nil
	case *Lit:
		return &bexpr{op: opLit, v: n.V}, nil
	case *ColRef:
		if b.sch == nil {
			return nil, fmt.Errorf("reldb: column %q referenced outside a row context", n.Name)
		}
		pos, err := b.sch.resolve(n.Table, n.Name)
		if err != nil {
			return nil, err
		}
		return &bexpr{op: opCol, pos: pos}, nil
	case *Unary:
		switch n.Op {
		case "NOT":
			return b.node(opNot, "", n.X)
		case "-":
			return b.node(opNeg, "", n.X)
		}
		return nil, fmt.Errorf("reldb: unknown unary op %q", n.Op)
	case *Binary:
		op, ok := binaryOps[n.Op]
		if !ok {
			return nil, fmt.Errorf("reldb: unknown operator %q", n.Op)
		}
		return b.node(op, n.Op, n.L, n.R)
	case *InExpr:
		e, err := b.node(opIn, "", append([]Expr{n.X}, n.List...)...)
		if e != nil {
			e.not = n.Not
		}
		return e, err
	case *IsNullExpr:
		e, err := b.node(opIsNull, "", n.X)
		if e != nil {
			e.not = n.Not
		}
		return e, err
	case *BetweenExpr:
		e, err := b.node(opBetween, "", n.X, n.Lo, n.Hi)
		if e != nil {
			e.not = n.Not
		}
		return e, err
	case *Call:
		if _, ok := aggregateFns[n.Fn]; ok {
			return b.aggregate(n)
		}
		e, err := b.node(opCall, n.Fn, n.Args...)
		if e != nil {
			e.fn = b.db.funcs[n.Fn] // nil fails on the rows that reach it
		}
		return e, err
	}
	return nil, fmt.Errorf("reldb: cannot evaluate %T", x)
}

// node binds operator op, written text, over xs.
func (b binder) node(op opcode, text string, xs ...Expr) (*bexpr, error) {
	e := &bexpr{op: op, text: text, args: make([]*bexpr, len(xs))}
	for i, x := range xs {
		a, err := b.bind(x)
		if err != nil {
			return nil, err
		}
		e.args[i] = a
	}
	return e, nil
}

// aggregate binds an aggregate call to a slot, an existing one when it
// computes the same thing.
func (b binder) aggregate(n *Call) (*bexpr, error) {
	if b.slots == nil {
		return nil, fmt.Errorf("reldb: aggregates are not allowed in %s", b.clause)
	}
	slot := &aggSlot{fn: aggregateFns[n.Fn], name: n.Fn, distinct: n.Distinct}
	switch {
	case n.Star && n.Fn != "COUNT":
		return nil, fmt.Errorf("reldb: %s(*) is not valid", n.Fn)
	case !n.Star && len(n.Args) != 1:
		return nil, fmt.Errorf("reldb: %s takes one argument", n.Fn)
	case !n.Star:
		arg, err := binder{db: b.db, sch: b.sch, clause: "an aggregate's argument"}.bind(n.Args[0])
		if err != nil {
			return nil, err
		}
		slot.arg = arg
	}
	for i, s := range *b.slots {
		if s.same(slot) {
			return &bexpr{op: opAgg, pos: i}, nil
		}
	}
	*b.slots = append(*b.slots, slot)
	return &bexpr{op: opAgg, pos: len(*b.slots) - 1}, nil
}
