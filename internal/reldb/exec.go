package reldb

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
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
// grouped SELECT: its first row and its accumulators.
type evalEnv struct {
	row   []Value
	slots []*aggSlot // the SELECT's aggregates
	accs  []acc      // the group's, one per slot
}

func (e *evalEnv) eval(n *bexpr) (Value, error) {
	switch n.op {
	case opLit:
		return n.v, nil
	case opCol:
		return e.row[n.pos], nil
	case opAgg:
		return e.accs[n.pos].value(e.slots[n.pos])
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

// acc accumulates one aggregate slot over the rows of one group.
type acc struct {
	n       int64 // values counted, after NULLs and repeats are dropped
	sum     float64
	isum    int64
	inexact bool // isum is not the sum: a value not an integer, or overflow
	best    Value
	seen    map[string]bool // COUNT DISTINCT and friends: the keys counted
	err     error           // the first row the argument failed on
}

// add accumulates slot s over the row p's env holds. An argument that
// fails is kept, and returned only when the slot is read: a slot nothing
// reads fails no statement, as when each was computed on first read.
func (a *acc) add(s *aggSlot, p *pipeline) {
	if a.err != nil {
		return
	}
	if s.arg == nil {
		a.n++ // COUNT(*)
		return
	}
	v, err := p.env.eval(s.arg)
	if err != nil || v.IsNull() {
		a.err = err
		return
	}
	if s.distinct {
		p.kbuf = v.appendKey(p.kbuf[:0])
		if a.seen[string(p.kbuf)] {
			return
		}
		if a.seen == nil {
			a.seen = make(map[string]bool, p.setSize)
		}
		a.seen[string(p.kbuf)] = true
	}
	a.n++
	switch s.fn {
	case aggSum, aggAvg:
		f, ok := v.AsFloat()
		if !ok {
			a.err = fmt.Errorf("reldb: %s over non-numeric value %s", s.name, v)
			return
		}
		a.sum += f
		if !a.inexact {
			next := a.isum + v.i
			a.inexact = v.kind != kindInt || (next > a.isum) != (v.i > 0)
			a.isum = next
		}
	case aggMin, aggMax:
		// Ties keep the first value.
		if c := Compare(v, a.best); a.n == 1 || (s.fn == aggMin && c < 0) || (s.fn == aggMax && c > 0) {
			a.best = v
		}
	}
}

// value is slot s over the rows added, or the error one of them gave.
func (a *acc) value(s *aggSlot) (Value, error) {
	switch {
	case a.err != nil:
		return Null, a.err
	case s.fn == aggCount:
		return Int(a.n), nil
	case s.fn == aggMin || s.fn == aggMax || a.n == 0:
		return a.best, nil // NULL over no values
	case s.fn == aggAvg:
		return Float(a.sum / float64(a.n)), nil
	case !a.inexact:
		return Int(a.isum), nil
	}
	return Float(a.sum), nil
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

// execSelectPlan runs a bound SELECT as one push pipeline (see pipeline).
// With a non-nil plan (EXPLAIN ANALYZE) what the execution counted, and
// its times, are copied into the plan's nodes; the plain path runs the
// same code and reads no clock.
func execSelectPlan(ctx context.Context, b *boundSelect, pl *selectPlan) (*Rows, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := &pipeline{b: b, stop: stopper{ctx: ctx}, stopAt: -1}
	if b.grouped {
		p.groups = map[string]int{}
	}
	if !b.grouped && !b.s.Distinct && len(b.order) == 0 && b.s.Limit >= 0 {
		p.stopAt = b.s.Offset + b.s.Limit
	}
	if pl != nil {
		p.t0 = time.Now()
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	out := p.finish()
	if pl != nil {
		pl.attach(p)
	}
	return out, nil
}

// pipeline is one execution of a bound SELECT. It builds each join's
// right side first. Then every row the FROM table's scan reads goes, on
// one reused joined row, through the pushed scan filter, each join in
// turn, what is left of WHERE, and the sink: grouping, or the projection
// of an output row. Only the right sides, the groups and the output rows
// are held; DISTINCT, ORDER BY and LIMIT then run on the output rows.
// Rows leave in the order a stage-by-stage execution gives: scan order,
// and under each row its join candidates in row order, a LEFT join's NULL
// padding after them. One stopper ticks once per row the scan or a pushed
// filter reads, per row that reaches a join, per pair a join probes and
// per group emitted. The state is the execution's own, so one Stmt runs
// on many goroutines at once.
type pipeline struct {
	b     *boundSelect
	stop  stopper
	row   []Value // the joined row: table k's columns from from.ends[k-1]
	env   evalEnv
	joins []joinStep
	kbuf  []byte

	// Grouped: per group, in first-seen order, a copy of its first row and
	// one accumulator per slot, each a flat array; groups maps each key to
	// its group.
	groups  map[string]int
	firsts  []Value
	accs    []acc
	ngroups int
	setSize int // the size a DISTINCT set starts at, when it is known

	// The output rows' values, and their ORDER BY keys, each a flat array.
	vals, keys []Value
	held       int // output rows in vals
	stopAt     int // held at which the scan stops; -1 runs it out

	// What each stage did, for EXPLAIN ANALYZE.
	read, scanned int // rows the scan read; rows its filter kept
	whereIn, sunk int // rows that reached WHERE; rows that reached the sink
	n, lo, hi     int // rows DISTINCT kept; the rows LIMIT keeps, [lo, hi)
	t0            time.Time
	ms            [4]float64 // when the pipeline, DISTINCT, ORDER BY and LIMIT ended
}

// joinStep is one join of a pipeline: its right side, and what it did.
type joinStep struct {
	jt    *Table
	left  bool // a LEFT join
	at    int  // where jt's columns start in the joined row
	on    *bexpr
	eq    *equiJoin
	right [][]Value            // the rows of jt its pushed filter kept, all of them without one
	built map[string][][]Value // right hashed on eq's column, when no stored index serves

	read          int     // rows jt's scan read
	in, out       int     // rows that reached the join; rows it handed on
	pairs, probes int     // pairs it tried; stored-index probes
	ms            float64 // when its right side was ready
}

// errFull stops the scan once the output holds every row a LIMIT keeps.
var errFull = errors.New("reldb: limit reached")

// elapsed is the time since an EXPLAIN ANALYZE execution began, in
// milliseconds; 0, without a clock read, for a plain one.
func (p *pipeline) elapsed() float64 {
	if p.t0.IsZero() {
		return 0
	}
	return float64(time.Since(p.t0)) / float64(time.Millisecond)
}

// run builds each join's right side, then pushes every row the scan reads
// through the joins to the sink.
func (p *pipeline) run() error {
	b, from := p.b, p.b.from
	p.row = make([]Value, len(from.sch.names))
	p.env.row = p.row
	p.joins = make([]joinStep, len(b.s.Joins))
	for i, j := range b.s.Joins {
		js := &p.joins[i]
		*js = joinStep{jt: from.tables[i+1], left: j.Left, at: from.ends[i], on: b.on[i], eq: b.joins[i]}
		read := b.lookups[i+1].rows(js.jt)
		js.read, js.right = len(read), read
		if b.right[i] != nil {
			js.right = nil
			env := evalEnv{}
			for _, r := range read {
				if err := p.stop.tick(); err != nil {
					return err
				}
				env.row = r
				if ok, err := env.holds(b.right[i]); err != nil {
					return err
				} else if ok {
					js.right = append(js.right, r)
				}
			}
		}
		if js.eq != nil && js.eq.index == nil {
			// Hash the right side, keyed like a stored index: NULL keys
			// never match, so they are left out.
			js.built = make(map[string][][]Value, len(js.right))
			for _, r := range js.right {
				if v := r[js.eq.rCol]; !v.IsNull() {
					p.kbuf = v.appendKey(p.kbuf[:0])
					k := string(p.kbuf) // retained as the bucket key
					js.built[k] = append(js.built[k], r)
				}
			}
		}
		js.ms = p.elapsed()
	}

	read := [][]Value{nil} // SELECT 1+1: one synthetic row
	if b.s.From != nil {
		read = b.lookups[0].rows(from.tables[0])
	}
	if len(b.s.Joins) == 0 && b.scan == nil && b.where == nil {
		// Every row read reaches the sink: size what the sink keeps.
		switch n := len(read); {
		case !b.grouped:
			if p.stopAt >= 0 {
				n = min(n, p.stopAt)
			}
			p.vals = make([]Value, 0, n*len(b.project))
			p.keys = make([]Value, 0, n*len(b.order))
		case len(b.groupBy) == 0:
			p.setSize = n // one group gets every row
		}
	}
	env := evalEnv{}
	for _, r := range read {
		if p.held == p.stopAt {
			break // LIMIT 0
		}
		if err := p.stop.tick(); err != nil {
			return err
		}
		p.read++
		env.row = r
		if ok, err := env.holds(b.scan); err != nil {
			return err
		} else if !ok {
			continue
		}
		p.scanned++
		if len(p.joins) == 0 {
			p.env.row = r // nothing writes the row, so the table's own serves
		} else {
			copy(p.row, r)
		}
		if err := p.push(0); err == errFull {
			break
		} else if err != nil {
			return err
		}
	}
	return p.group()
}

// push hands the joined row, filled up to join i, to join i, or past the
// last join to WHERE and the sink.
func (p *pipeline) push(i int) error {
	if i == len(p.joins) {
		return p.sink()
	}
	j := &p.joins[i]
	if err := p.stop.tick(); err != nil {
		return err
	}
	j.in++
	out := j.out
	switch {
	case j.eq == nil:
		for _, r := range j.right {
			if err := p.try(i, r); err != nil {
				return err
			}
		}
	case !p.row[j.eq.lPos].IsNull():
		// Allocation-free probe: reused key buffer, m[string(buf)].
		p.kbuf = p.row[j.eq.lPos].appendKey(p.kbuf[:0])
		if j.built != nil {
			for _, r := range j.built[string(p.kbuf)] {
				if err := p.try(i, r); err != nil {
					return err
				}
			}
			break
		}
		j.probes++
		for _, id := range j.eq.index[string(p.kbuf)] {
			if err := p.try(i, j.jt.Rows[id]); err != nil {
				return err
			}
		}
	}
	if j.left && j.out == out {
		// A LEFT join that kept no candidate pads its columns with NULLs.
		clear(p.row[j.at : j.at+len(j.jt.Cols)])
		j.out++
		return p.push(i + 1)
	}
	return nil
}

// try writes candidate r into join i's columns of the joined row and,
// when ON holds on it, hands the row on.
func (p *pipeline) try(i int, r []Value) error {
	if err := p.stop.tick(); err != nil {
		return err
	}
	j := &p.joins[i]
	j.pairs++
	copy(p.row[j.at:], r)
	if ok, err := p.env.holds(j.on); err != nil || !ok {
		return err
	}
	j.out++
	return p.push(i + 1)
}

// sink takes a row past the last join: WHERE decides, then the row goes
// to its group or becomes an output row.
func (p *pipeline) sink() error {
	p.whereIn++
	if ok, err := p.env.holds(p.b.where); err != nil || !ok {
		return err
	}
	p.sunk++
	if p.b.grouped {
		return p.add()
	}
	return p.emit()
}

// add adds the row env holds to its group, and starts the group when the
// row is its first.
func (p *pipeline) add() error {
	b := p.b
	g := 0 // without GROUP BY, every row's group once it has started
	if len(b.groupBy) > 0 || p.ngroups == 0 {
		p.kbuf = p.kbuf[:0]
		for _, e := range b.groupBy {
			v, err := p.env.eval(e)
			if err != nil {
				return err
			}
			p.kbuf = v.appendKey(p.kbuf)
			p.kbuf = append(p.kbuf, '\x01')
		}
		// The m[string(buf)] lookup is allocation-free; only a new group
		// pays for a retained key string.
		var ok bool
		if g, ok = p.groups[string(p.kbuf)]; !ok {
			g = p.ngroups
			p.groups[string(p.kbuf)] = g
			p.newGroup(p.env.row)
		}
	}
	n := len(b.slots)
	accs := p.accs[g*n : g*n+n]
	for k, s := range b.slots {
		accs[k].add(s, p)
	}
	return nil
}

// newGroup starts a group whose first row is first.
func (p *pipeline) newGroup(first []Value) {
	p.firsts = append(p.firsts, first...)
	p.accs = append(p.accs, make([]acc, len(p.b.slots))...)
	p.ngroups++
}

// emit projects the row env holds, and its ORDER BY keys, into the output.
func (p *pipeline) emit() error {
	start := len(p.vals)
	for _, x := range p.b.project {
		v, err := p.env.eval(x)
		if err != nil {
			return err
		}
		p.vals = append(p.vals, v)
	}
	for _, k := range p.b.order {
		if k.item >= 0 {
			p.keys = append(p.keys, p.vals[start+k.item])
			continue
		}
		v, err := p.env.eval(k.expr)
		if err != nil {
			return err
		}
		p.keys = append(p.keys, v)
	}
	p.held++
	if p.held == p.stopAt {
		return errFull
	}
	return nil
}

// group ends a grouped pipeline: it emits each group that HAVING keeps.
// Without GROUP BY there is one group even when no row arrived; its bare
// columns read NULL.
func (p *pipeline) group() error {
	b := p.b
	if !b.grouped {
		return nil
	}
	w, n := len(b.from.sch.names), len(b.slots)
	if p.ngroups == 0 && len(b.groupBy) == 0 {
		p.newGroup(make([]Value, w))
	}
	p.vals = make([]Value, 0, p.ngroups*len(b.project))
	p.keys = make([]Value, 0, p.ngroups*len(b.order))
	p.env.slots = b.slots
	for g := range p.ngroups {
		if err := p.stop.tick(); err != nil {
			return err
		}
		p.env.row, p.env.accs = p.firsts[g*w:g*w+w], p.accs[g*n:g*n+n]
		if ok, err := p.env.holds(b.having); err != nil {
			return err
		} else if ok {
			if err := p.emit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish applies DISTINCT, ORDER BY and LIMIT to the output rows.
func (p *pipeline) finish() *Rows {
	b, s := p.b, p.b.s
	p.ms[0] = p.elapsed()
	w := len(b.project)
	row := func(i int) []Value { return p.vals[i*w : i*w+w : i*w+w] }

	// perm lists the output rows in the order they leave, once DISTINCT
	// or ORDER BY needs one.
	var perm []int
	p.n = p.held
	if s.Distinct {
		seen := make(map[string]bool, p.held)
		perm = make([]int, 0, p.held)
		for i := range p.held {
			p.kbuf = p.kbuf[:0]
			for _, v := range row(i) {
				p.kbuf = v.appendKey(p.kbuf)
				p.kbuf = append(p.kbuf, '\x01')
			}
			// The m[string(buf)] lookup is allocation-free; only newly seen
			// rows pay for a retained key string.
			if !seen[string(p.kbuf)] {
				seen[string(p.kbuf)] = true
				perm = append(perm, i)
			}
		}
		p.n = len(perm)
	}
	p.ms[1] = p.elapsed()

	// ORDER BY sorts positions, and breaks ties by position, so equal
	// keys keep their input order without a stable sort.
	if nk := len(b.order); nk > 0 {
		if perm == nil {
			perm = make([]int, p.held)
			for i := range perm {
				perm[i] = i
			}
		}
		slices.SortFunc(perm, func(x, y int) int {
			kx, ky := p.keys[x*nk:x*nk+nk], p.keys[y*nk:y*nk+nk]
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
	}
	p.ms[2] = p.elapsed()

	p.lo, p.hi = min(s.Offset, p.n), p.n
	if s.Limit >= 0 {
		p.hi = min(p.lo+s.Limit, p.n)
	}
	out := &Rows{Columns: make([]string, len(b.items)), Rows: make([][]Value, p.hi-p.lo)}
	for i, it := range b.items {
		out.Columns[i] = itemName(it)
	}
	for i := range out.Rows {
		k := p.lo + i
		if perm != nil {
			k = perm[k]
		}
		out.Rows[i] = row(k)
	}
	p.ms[3] = p.elapsed()
	return out
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
