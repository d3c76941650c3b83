package reldb

import "sort"

// indexLookup is a point lookup: the rows of one stored hash index bucket,
// those whose column col holds key.
type indexLookup struct {
	col int
	key Value
	ids []int // the bucket's row ids, in row order
}

// rows returns what a table's scan reads: the bucket's rows in row order
// under a lookup, every row otherwise.
func (l *indexLookup) rows(t *Table) [][]Value {
	if l == nil {
		return t.Rows
	}
	out := make([][]Value, len(l.ids))
	for i, id := range l.ids {
		out[i] = t.Rows[id]
	}
	return out
}

// lookupFor returns the point lookup for pred, the filter pushed onto
// table t (whose own rows have schema sch), or nil when t is read whole.
// It takes the first top-level conjunct `col = literal`, in either order,
// whose column has a stored index and whose literal has the column's
// declared kind: an integer on an INTEGER column, a text on a TEXT column.
// Only then is the bucket exactly the rows on which the conjunct holds.
// Compare makes k = '1' and k = 1.0 true where k holds 1, but '1' and 1.0
// are not 1's key, and NULL equals nothing. The whole of pred still runs
// on the bucket's rows.
func lookupFor(pred Expr, sch *schema, t *Table) *indexLookup {
	for _, c := range conjuncts(pred, nil) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		ref, lit := b.L, b.R
		if _, ok := ref.(*Lit); ok {
			ref, lit = lit, ref
		}
		col, isCol := columnOf(ref, sch)
		l, isLit := lit.(*Lit)
		if !isCol || !isLit || !keyKind(l.V, t.Cols[col].Type) {
			continue
		}
		if idx, ok := t.indexes[col]; ok {
			return &indexLookup{col: col, key: l.V, ids: idx[l.V.key()]}
		}
	}
	return nil
}

// keyKind reports whether v is a value a column of type typ stores: an
// integer for INTEGER, a text for TEXT. Columns of other types are never
// looked up.
func keyKind(v Value, typ Type) bool {
	return (typ == TypeInt && v.kind == kindInt) || (typ == TypeText && v.kind == kindText)
}

// equiJoin is the key of a hash join: a column of the tables already
// joined (lPos, its position in the joined row) equal to a column of the
// table the join adds (rCol, its position in that table's rows).
type equiJoin struct {
	rKey       Expr // the joined table's column as written, for EXPLAIN
	lPos, rCol int
	// index is the joined table's stored index on rCol when the join
	// reads that whole table; it probes the index instead of building
	// a hash table.
	index map[string][]int
}

// equiJoinPair finds the first top-level conjunct of on, what is left of
// join i's ON clause after placement, that equates a bare column of the
// tables already joined with a bare column of table i+1, the one the join
// adds, of the same declared type. Only then do hash keys agree with =:
// Compare makes Text('1') = Int(1) true, but their keys differ. It
// returns nil when no conjunct qualifies; the join then runs as a nested
// loop.
func equiJoinPair(on Expr, f *fromClause, i int) *equiJoin {
	sch := f.upTo(i + 1)
	split := f.ends[i] // where table i+1's columns start
	for _, c := range conjuncts(on, nil) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		l, lok := columnOf(b.L, sch)
		r, rok := columnOf(b.R, sch)
		rKey := b.R
		if r < l {
			l, r, rKey = r, l, b.L
		}
		if lok && rok && l < split && r >= split && f.column(l).Type == f.column(r).Type {
			return &equiJoin{rKey: rKey, lPos: l, rCol: r - split}
		}
	}
	return nil
}

// columnOf returns the position in sch of e when e is a column reference
// that sch resolves.
func columnOf(e Expr, sch *schema) (int, bool) {
	ref, ok := e.(*ColRef)
	if !ok {
		return 0, false
	}
	pos, err := sch.resolve(ref.Table, ref.Name)
	return pos, err == nil
}

// tableAt returns the table whose columns hold schema position pos.
func (f *fromClause) tableAt(pos int) int { return sort.SearchInts(f.ends, pos+1) }

// column is the declaration of the column at schema position pos.
func (f *fromClause) column(pos int) ColumnDef {
	k := f.tableAt(pos)
	if k > 0 {
		pos -= f.ends[k-1]
	}
	return f.tables[k].Cols[pos]
}
