package reldb

import (
	"fmt"
	"strings"
)

// fromClause is a SELECT's FROM table and joined tables resolved against
// the catalogue, with the schema of a row after every join.
type fromClause struct {
	tables []*Table // FROM table, then one per join
	sch    *schema  // every table's columns, in join order
	ends   []int    // ends[k] is the schema position just past table k's columns
}

// resolveFrom looks up the tables of s, FROM first. The caller holds db.mu
// (shared is enough). A SELECT without FROM gets no tables and an empty
// schema.
func (db *DB) resolveFrom(s *SelectStmt) (*fromClause, error) {
	f := &fromClause{sch: newSchema()}
	if s.From == nil {
		return f, nil
	}
	refs := make([]TableRef, 0, 1+len(s.Joins))
	refs = append(refs, *s.From)
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	for _, ref := range refs {
		//lint:ignore guardedby callers hold db.mu
		t, ok := db.tables[strings.ToLower(ref.Name)]
		if !ok {
			return nil, fmt.Errorf("reldb: no such table %q", ref.Name)
		}
		f.tables = append(f.tables, t)
		f.sch.addTable(ref.label(), t)
		f.ends = append(f.ends, len(f.sch.names))
	}
	return f, nil
}

// upTo is the schema of tables 0..k joined: what join k-1 produces.
func (f *fromClause) upTo(k int) *schema {
	e := f.ends[k]
	return &schema{labels: f.sch.labels[:e:e], names: f.sch.names[:e:e]}
}

// only is the schema of table k's own rows.
func (f *fromClause) only(k int) *schema {
	s := 0
	if k > 0 {
		s = f.ends[k-1]
	}
	e := f.ends[k]
	return &schema{labels: f.sch.labels[s:e:e], names: f.sch.names[s:e:e]}
}

// filterPlacement says where each top-level AND conjunct of a SELECT's
// WHERE and ON clauses runs. A nil Expr is a filter with nothing to do.
type filterPlacement struct {
	scan  Expr   // filters the FROM table's rows
	right []Expr // per join: filters the joined table's rows before the join
	on    []Expr // per join: what the join itself evaluates
	where Expr   // runs after every join
}

// placeFilters decides where each conjunct of s runs. A conjunct moves to
// a table when it reads that table's columns alone and cannot fail on any
// row (see movable):
//   - a WHERE conjunct on the FROM table filters its scan;
//   - a WHERE conjunct on an INNER-joined table, and an ON conjunct on the
//     table its JOIN adds (INNER or LEFT), filter that table's rows before
//     the join.
//
// Everything else stays where the SQL put it: WHERE conjuncts on a
// LEFT-joined table (a filter there would keep the NULL-padded rows it
// should drop), ON conjuncts on an earlier table, and conjuncts that are
// mixed, constant, unresolvable or able to fail. The bind pass calls
// this on every execution, against the tables current then, and both the
// executor and the planner read its result, so the plan shown is the plan
// run.
func placeFilters(s *SelectStmt, f *fromClause) filterPlacement {
	var pf filterPlacement
	if len(s.Joins) > 0 {
		pf.right = make([]Expr, len(s.Joins))
		pf.on = make([]Expr, len(s.Joins))
	}
	for i, j := range s.Joins {
		sch := f.upTo(i + 1)
		for _, c := range conjuncts(j.On, nil) {
			if f.owner(c, sch) == i+1 {
				pf.right[i] = and(pf.right[i], c)
			} else {
				pf.on[i] = and(pf.on[i], c)
			}
		}
		if pf.right[i] == nil {
			pf.on[i] = j.On
		}
	}
	moved := false
	for _, c := range conjuncts(s.Where, nil) {
		switch k := f.owner(c, f.sch); {
		case k == 0:
			pf.scan = and(pf.scan, c)
		case k > 0 && !s.Joins[k-1].Left:
			pf.right[k-1] = and(pf.right[k-1], c)
		default:
			pf.where = and(pf.where, c)
			continue
		}
		moved = true
	}
	if !moved {
		pf.where = s.Where
	}
	return pf
}

// conjuncts appends the top-level AND operands of e to out, left to right.
func conjuncts(e Expr, out []Expr) []Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, e)
}

// and appends c to the conjunction acc (nil when empty).
func and(acc, c Expr) Expr {
	if acc == nil {
		return c
	}
	return &Binary{Op: "AND", L: acc, R: c}
}

// owner returns the table whose columns e alone reads, or -1 when e is not
// movable, reads no column, or reads columns of several tables.
func (f *fromClause) owner(e Expr, sch *schema) int {
	k := -1
	if !f.movable(e, sch, &k) {
		return -1
	}
	return k
}

// movable reports whether e can be evaluated on one table's rows with
// the value it would have on any joined row holding them, and without
// failing: it holds only literals (a negative number included), columns
// sch resolves, comparisons, LIKE, IN lists, IS [NOT] NULL, BETWEEN and
// AND/OR/NOT of these, and its columns all belong to one table, which it
// records in *k. Arithmetic, || and function calls can fail on a row (a
// non-numeric operand, a bad argument), so a conjunct holding one stays
// where it would meet the same rows it meets today.
func (f *fromClause) movable(e Expr, sch *schema, k *int) bool {
	switch n := e.(type) {
	case *Lit:
		return true
	case *ColRef:
		pos, err := sch.resolve(n.Table, n.Name)
		if err != nil {
			return false
		}
		t := f.tableAt(pos)
		if *k >= 0 && *k != t {
			return false
		}
		*k = t
		return true
	case *Unary:
		if n.Op == "-" {
			lit, ok := n.X.(*Lit)
			return ok && (lit.V.kind == kindInt || lit.V.kind == kindFloat)
		}
		return n.Op == "NOT" && f.movable(n.X, sch, k)
	case *Binary:
		switch n.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=", "LIKE":
			return f.movable(n.L, sch, k) && f.movable(n.R, sch, k)
		}
		return false
	case *InExpr:
		for _, x := range n.List {
			if !f.movable(x, sch, k) {
				return false
			}
		}
		return f.movable(n.X, sch, k)
	case *IsNullExpr:
		return f.movable(n.X, sch, k)
	case *BetweenExpr:
		return f.movable(n.X, sch, k) && f.movable(n.Lo, sch, k) && f.movable(n.Hi, sch, k)
	}
	return false
}
