package reldb

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Operator names used in plan trees. They double as the machine-readable
// "op" field of the JSON rendering, so they are stable identifiers.
const (
	OpScan     = "scan"
	OpValues   = "values"
	OpHashJoin = "hash_join"
	OpLoopJoin = "nested_loop_join"
	OpFilter   = "filter"
	OpGroup    = "group"
	OpProject  = "project"
	OpDistinct = "distinct"
	OpSort     = "sort"
	OpLimit    = "limit"
)

// OpStats holds the runtime measurements EXPLAIN ANALYZE attaches to one
// operator: rows flowing in and out, how many times the operator ran, and
// wall time spent inside it.
type OpStats struct {
	RowsIn  int     `json:"rows_in"`
	RowsOut int     `json:"rows_out"`
	Loops   int     `json:"loops"`
	TimeMs  float64 `json:"time_ms"`
}

// PlanNode is one operator in a query plan tree. Plain EXPLAIN produces the
// static tree (Actual nil); EXPLAIN ANALYZE additionally executes the
// statement and fills Actual on every operator that ran.
type PlanNode struct {
	Op       string      `json:"op"`
	Table    string      `json:"table,omitempty"`
	Detail   string      `json:"detail,omitempty"`
	Index    string      `json:"index,omitempty"`
	EstRows  int         `json:"est_rows,omitempty"`
	Children []*PlanNode `json:"children,omitempty"`
	Actual   *OpStats    `json:"actual,omitempty"`
}

// Text renders the plan tree as indented lines, root first.
func (n *PlanNode) Text() []string {
	var out []string
	n.appendText(&out, 0)
	return out
}

// Rows renders the plan tree as a single-column result set, so EXPLAIN
// output flows through every surface that already speaks *Rows (the SQL
// HTTP endpoint, igdb sql, the codec).
func (n *PlanNode) Rows() *Rows {
	lines := n.Text()
	out := &Rows{Columns: []string{"plan"}}
	out.Rows = make([][]Value, len(lines))
	for i, l := range lines {
		out.Rows[i] = []Value{Text(l)}
	}
	return out
}

func (n *PlanNode) appendText(out *[]string, depth int) {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	if depth > 0 {
		b.WriteString("-> ")
	}
	b.WriteString(n.Op)
	if n.Table != "" {
		b.WriteByte(' ')
		b.WriteString(n.Table)
	}
	if n.Detail != "" {
		b.WriteString(" (")
		b.WriteString(n.Detail)
		b.WriteByte(')')
	}
	if n.EstRows > 0 || n.Op == OpScan {
		fmt.Fprintf(&b, " rows=%d", n.EstRows)
	}
	if n.Index != "" {
		b.WriteString(" [")
		b.WriteString(n.Index)
		b.WriteByte(']')
	}
	if n.Actual != nil {
		fmt.Fprintf(&b, " (actual: in=%d out=%d loops=%d time=%.3fms)",
			n.Actual.RowsIn, n.Actual.RowsOut, n.Actual.Loops, n.Actual.TimeMs)
	}
	*out = append(*out, b.String())
	for _, c := range n.Children {
		c.appendText(out, depth+1)
	}
}

// Walk visits the node and all descendants in depth-first pre-order.
func (n *PlanNode) Walk(fn func(*PlanNode, int)) { n.walk(fn, 0) }

func (n *PlanNode) walk(fn func(*PlanNode, int), depth int) {
	fn(n, depth)
	for _, c := range n.Children {
		c.walk(fn, depth+1)
	}
}

// selectPlan carries the plan tree for one SELECT plus direct handles to the
// stage nodes the executor instruments. A nil *selectPlan is the plain-query
// path: every probe call on it is a nil check and nothing else, which keeps
// EXPLAIN support free when not asked for.
type selectPlan struct {
	root       *PlanNode
	scan       *PlanNode
	scanFilter *PlanNode // filter pushed onto the FROM table's scan, or nil
	joins      []*PlanNode
	rscans     []*PlanNode // right-side scan per join, same order
	rfilters   []*PlanNode // filter pushed onto each right-side scan, or nil
	filter     *PlanNode   // what is left of WHERE, after the joins, or nil
	output     *PlanNode   // group or project
	dedup      *PlanNode
	sort       *PlanNode
	limit      *PlanNode
}

// opProbe measures one operator activation. The zero-value-free nil form is
// a no-op on every method, so un-instrumented execution pays only a nil
// comparison per stage.
type opProbe struct {
	node *PlanNode
	t0   time.Time
}

func newProbe(n *PlanNode) *opProbe {
	if n == nil {
		return nil
	}
	return &opProbe{node: n, t0: time.Now()}
}

// Per-stage probe constructors; all are no-ops on a nil plan so the
// executor can call them unconditionally.
func (pl *selectPlan) probeScan() *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.scan)
}

func (pl *selectPlan) probeScanFilter() *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.scanFilter)
}

func (pl *selectPlan) probeRightFilter(i int) *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.rfilters[i])
}

func (pl *selectPlan) probeJoin(i int) *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.joins[i])
}

func (pl *selectPlan) probeFilter() *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.filter)
}

func (pl *selectPlan) probeOutput() *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.output)
}

func (pl *selectPlan) probeDistinct() *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.dedup)
}

func (pl *selectPlan) probeSort() *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.sort)
}

func (pl *selectPlan) probeLimit() *opProbe {
	if pl == nil {
		return nil
	}
	return newProbe(pl.limit)
}

// done accumulates the activation into the node. Accumulation (rather than
// assignment) keeps repeated activations of one operator additive.
func (p *opProbe) done(rowsIn, rowsOut, loops int) {
	if p == nil {
		return
	}
	st := p.node.Actual
	if st == nil {
		st = &OpStats{}
		p.node.Actual = st
	}
	st.RowsIn += rowsIn
	st.RowsOut += rowsOut
	st.Loops += loops
	st.TimeMs += float64(time.Since(p.t0)) / float64(time.Millisecond)
}

// scannedRight records how join i read its right side (see join).
func (pl *selectPlan) scannedRight(i int, st OpStats) {
	if pl == nil {
		return
	}
	pl.rscans[i].Actual = &st
}

// planSelect builds the static plan tree of a bound SELECT. It renders
// the executor's own decisions, from the bound tree, so EXPLAIN never
// lies about what execution would do: where each filter runs, which scans
// are index lookups, and how each join runs.
func planSelect(b *boundSelect) *selectPlan {
	s, from, pf := b.s, b.from, &b.pf
	pl := &selectPlan{}
	var cur *PlanNode
	if s.From == nil {
		cur = &PlanNode{Op: OpValues, Detail: "one synthetic row", EstRows: 1}
		pl.scan = cur
	} else {
		cur = scanNode(s.From.label(), from.tables[0], b.lookups[0])
		pl.scan = cur
		if pf.scan != nil {
			pl.scanFilter = filterNode(pf.scan, cur)
			cur = pl.scanFilter
		}
		for i, j := range s.Joins {
			jt := from.tables[i+1]
			detail := "inner join"
			if j.Left {
				detail = "left join"
			}
			if pf.on[i] != nil {
				detail += " on " + ExprString(pf.on[i])
			}
			jn := &PlanNode{Op: OpLoopJoin, Detail: detail}
			if eq := b.joins[i]; eq != nil {
				jn.Op = OpHashJoin
				jn.Index = "hash(" + ExprString(eq.rKey) + ")"
				if eq.index != nil {
					jn.Index = "index " + ExprString(eq.rKey)
				}
			}
			rscan := scanNode(j.Table.label(), jt, b.lookups[i+1])
			var rfilter *PlanNode
			right := rscan
			if pf.right[i] != nil {
				rfilter = filterNode(pf.right[i], rscan)
				right = rfilter
			}
			jn.Children = []*PlanNode{cur, right}
			pl.joins = append(pl.joins, jn)
			pl.rscans = append(pl.rscans, rscan)
			pl.rfilters = append(pl.rfilters, rfilter)
			cur = jn
		}
	}

	if pf.where != nil {
		pl.filter = filterNode(pf.where, cur)
		cur = pl.filter
	}

	var names []string
	for _, it := range b.items {
		names = append(names, itemName(it))
	}
	if b.grouped {
		detail := "by: all rows"
		if len(s.GroupBy) > 0 {
			detail = "by: " + exprListString(s.GroupBy)
		}
		if s.Having != nil {
			detail += "; having: " + ExprString(s.Having)
		}
		detail += "; emit: " + strings.Join(names, ", ")
		pl.output = &PlanNode{Op: OpGroup, Detail: detail, Children: []*PlanNode{cur}}
	} else {
		pl.output = &PlanNode{Op: OpProject, Detail: strings.Join(names, ", "), Children: []*PlanNode{cur}}
	}
	cur = pl.output

	if s.Distinct {
		pl.dedup = &PlanNode{Op: OpDistinct, Children: []*PlanNode{cur}}
		cur = pl.dedup
	}
	if len(s.OrderBy) > 0 {
		var keys []string
		for _, ob := range s.OrderBy {
			k := ExprString(ob.Expr)
			if ob.Desc {
				k += " desc"
			}
			keys = append(keys, k)
		}
		pl.sort = &PlanNode{Op: OpSort, Detail: "keys: " + strings.Join(keys, ", "), Children: []*PlanNode{cur}}
		cur = pl.sort
	}
	if s.Limit >= 0 || s.Offset > 0 {
		detail := ""
		if s.Limit >= 0 {
			detail = fmt.Sprintf("limit %d", s.Limit)
		}
		if s.Offset > 0 {
			if detail != "" {
				detail += " "
			}
			detail += fmt.Sprintf("offset %d", s.Offset)
		}
		pl.limit = &PlanNode{Op: OpLimit, Detail: detail, Children: []*PlanNode{cur}}
		cur = pl.limit
	}
	pl.root = cur
	return pl
}

// filterNode keeps the rows of child on which pred is true.
func filterNode(pred Expr, child *PlanNode) *PlanNode {
	return &PlanNode{Op: OpFilter, Detail: ExprString(pred), Children: []*PlanNode{child}}
}

// scanNode describes the read of one table: every row, or under a point
// lookup only the bucket's, which its bracket names and rows= counts.
func scanNode(label string, t *Table, l *indexLookup) *PlanNode {
	n := &PlanNode{Op: OpScan, Table: t.Name, EstRows: len(t.Rows)}
	if !strings.EqualFold(label, t.Name) {
		n.Detail = "as " + label
	}
	if l != nil {
		n.EstRows = len(l.ids)
		n.Index = "index " + strings.ToLower(t.Cols[l.col].Name) + " = " + litString(l.key)
	}
	return n
}

// explainLocked plans ex.Stmt and, for EXPLAIN ANALYZE of a SELECT,
// executes it under ctx with per-operator probes attached. Callers hold
// db.mu for reading — ANALYZE therefore only supports read-only
// statements.
func (db *DB) explainLocked(ctx context.Context, ex *ExplainStmt) (*PlanNode, error) {
	switch inner := ex.Stmt.(type) {
	case *SelectStmt:
		b, err := db.bind(inner)
		if err != nil {
			return nil, err
		}
		pl := planSelect(b)
		if ex.Analyze {
			if _, err := execSelectPlan(ctx, b, pl); err != nil {
				return nil, err
			}
		}
		return pl.root, nil
	default:
		if ex.Analyze {
			return nil, fmt.Errorf("reldb: EXPLAIN ANALYZE supports only SELECT (got %s)", StatementKind(ex.Stmt))
		}
		switch ex.Stmt.(type) {
		case *InsertStmt, *UpdateStmt, *DeleteStmt:
			if _, err := db.bindDML(ex.Stmt); err != nil {
				return nil, err
			}
		}
		return staticPlan(ex.Stmt), nil
	}
}

// staticPlan builds the single-node plans EXPLAIN reports for DDL/DML.
func staticPlan(st Statement) *PlanNode {
	switch s := st.(type) {
	case *InsertStmt:
		return &PlanNode{Op: "insert", Table: s.Table, Detail: fmt.Sprintf("%d row(s)", len(s.Rows))}
	case *DeleteStmt:
		n := &PlanNode{Op: "delete", Table: s.Table}
		if s.Where != nil {
			n.Detail = ExprString(s.Where)
		}
		return n
	case *UpdateStmt:
		var cols []string
		for _, set := range s.Sets {
			cols = append(cols, strings.ToLower(set.Column))
		}
		n := &PlanNode{Op: "update", Table: s.Table, Detail: "set: " + strings.Join(cols, ", ")}
		if s.Where != nil {
			n.Detail += "; where: " + ExprString(s.Where)
		}
		return n
	case *CreateTableStmt:
		return &PlanNode{Op: "create_table", Table: s.Name, Detail: fmt.Sprintf("%d column(s)", len(s.Cols))}
	case *CreateIndexStmt:
		return &PlanNode{Op: "create_index", Table: s.Table, Index: "hash(" + strings.ToLower(s.Column) + ")"}
	case *DropTableStmt:
		return &PlanNode{Op: "drop_table", Table: s.Name}
	default:
		return &PlanNode{Op: strings.ToLower(StatementKind(st))}
	}
}

// ExprString renders an expression for plan annotations. The output is for
// humans reading plans, not for re-parsing.
func ExprString(e Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *Lit:
		return litString(n.V)
	case *ColRef:
		if n.Table != "" {
			return strings.ToLower(n.Table) + "." + strings.ToLower(n.Name)
		}
		return strings.ToLower(n.Name)
	case *Unary:
		if n.Op == "NOT" {
			return "NOT " + ExprString(n.X)
		}
		return n.Op + ExprString(n.X)
	case *Binary:
		return boolOperand(n.L, n.Op) + " " + n.Op + " " + boolOperand(n.R, n.Op)
	case *InExpr:
		op := " IN ("
		if n.Not {
			op = " NOT IN ("
		}
		return ExprString(n.X) + op + exprListString(n.List) + ")"
	case *IsNullExpr:
		if n.Not {
			return ExprString(n.X) + " IS NOT NULL"
		}
		return ExprString(n.X) + " IS NULL"
	case *BetweenExpr:
		op := " BETWEEN "
		if n.Not {
			op = " NOT BETWEEN "
		}
		return ExprString(n.X) + op + ExprString(n.Lo) + " AND " + ExprString(n.Hi)
	case *Call:
		if n.Star {
			return n.Fn + "(*)"
		}
		args := exprListString(n.Args)
		if n.Distinct {
			args = "DISTINCT " + args
		}
		return n.Fn + "(" + args + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// boolOperand parenthesizes a nested AND/OR of a different operator so the
// rendered precedence matches the tree.
func boolOperand(e Expr, parentOp string) string {
	if b, ok := e.(*Binary); ok && (b.Op == "AND" || b.Op == "OR") && b.Op != parentOp {
		return "(" + ExprString(e) + ")"
	}
	return ExprString(e)
}

func exprListString(list []Expr) string {
	var parts []string
	for _, e := range list {
		parts = append(parts, ExprString(e))
	}
	return strings.Join(parts, ", ")
}

func litString(v Value) string {
	if v.kind == kindText {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}
