package reldb

import (
	"fmt"
	"strconv"
	"strings"
)

// ---- AST ----

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef declares a column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type Type
}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name string
	Cols []ColumnDef
}

// CreateIndexStmt is CREATE INDEX [name] ON table (column).
type CreateIndexStmt struct {
	Table  string
	Column string
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SetClause is one column = expr assignment in UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SelectItem is one projection in a SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool   // SELECT * or tbl.*
	Table string // qualifier for tbl.*
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

func (t TableRef) label() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN ... ON ... in a SELECT.
type JoinClause struct {
	Left  bool // LEFT OUTER join; false = INNER
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 = none
	Offset   int // 0 = none
}

// ExplainStmt is EXPLAIN [ANALYZE] <statement>. The wrapped statement is
// planned (and, for ANALYZE, executed) rather than run directly; execution
// produces a plan tree instead of the statement's own result set.
type ExplainStmt struct {
	Analyze bool
	Stmt    Statement
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}

// Expr is any SQL expression node.
type Expr interface{ expr() }

// Lit is a literal value.
type Lit struct{ V Value }

// ColRef references a column, optionally qualified by table/alias.
type ColRef struct{ Table, Name string }

// Unary is NOT x or -x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operation (comparisons, boolean, arithmetic, LIKE, ||).
type Binary struct {
	Op   string
	L, R Expr
}

// InExpr is x [NOT] IN (list).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// Call is a function call; aggregates are COUNT/SUM/AVG/MIN/MAX.
type Call struct {
	Fn       string
	Distinct bool
	Star     bool // COUNT(*)
	Args     []Expr
}

func (*Lit) expr()         {}
func (*ColRef) expr()      {}
func (*Unary) expr()       {}
func (*Binary) expr()      {}
func (*InExpr) expr()      {}
func (*IsNullExpr) expr()  {}
func (*BetweenExpr) expr() {}
func (*Call) expr()        {}

// ---- Parser ----

type parser struct {
	toks []token
	pos  int
}

// ParseStatement parses a single SQL statement.
func ParseStatement(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.cur().kind == tokSymbol && p.cur().text == ";" {
		p.pos++
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("reldb: unexpected %q after statement", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("reldb: expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return fmt.Errorf("reldb: expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	return "", fmt.Errorf("reldb: expected identifier, found %q", t.text)
}

func (p *parser) statement() (Statement, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("reldb: expected statement, found %q", t.text)
	}
	switch t.text {
	case "CREATE":
		return p.create()
	case "DROP":
		return p.drop()
	case "INSERT":
		return p.insert()
	case "DELETE":
		return p.delete()
	case "UPDATE":
		return p.update()
	case "SELECT":
		return p.selectStmt()
	case "EXPLAIN":
		return p.explain()
	default:
		return nil, fmt.Errorf("reldb: unsupported statement %q", t.text)
	}
}

func (p *parser) explain() (Statement, error) {
	p.pos++ // EXPLAIN
	analyze := p.acceptKeyword("ANALYZE")
	if p.cur().kind == tokKeyword && p.cur().text == "EXPLAIN" {
		return nil, fmt.Errorf("reldb: cannot EXPLAIN an EXPLAIN")
	}
	inner, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Analyze: analyze, Stmt: inner}, nil
}

func (p *parser) create() (Statement, error) {
	p.pos++ // CREATE
	if p.acceptKeyword("TABLE") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var cols []ColumnDef
		for {
			cname, err := p.ident()
			if err != nil {
				return nil, err
			}
			ctype, err := p.columnType()
			if err != nil {
				return nil, err
			}
			cols = append(cols, ColumnDef{Name: cname, Type: ctype})
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateTableStmt{Name: name, Cols: cols}, nil
	}
	if p.acceptKeyword("INDEX") {
		// Optional index name, ignored (indexes are per-column).
		if p.cur().kind == tokIdent {
			p.pos++
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Table: table, Column: col}, nil
	}
	return nil, fmt.Errorf("reldb: CREATE must be followed by TABLE or INDEX")
}

func (p *parser) columnType() (Type, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return 0, fmt.Errorf("reldb: expected column type, found %q", t.text)
	}
	p.pos++
	switch t.text {
	case "INTEGER", "INT":
		return TypeInt, nil
	case "REAL", "FLOAT":
		return TypeFloat, nil
	case "TEXT":
		return TypeText, nil
	case "VARCHAR":
		// Accept VARCHAR(n) and ignore the width.
		if p.acceptSymbol("(") {
			if p.cur().kind == tokNumber {
				p.pos++
			}
			if err := p.expectSymbol(")"); err != nil {
				return 0, err
			}
		}
		return TypeText, nil
	case "BOOLEAN", "BOOL":
		return TypeBool, nil
	default:
		return 0, fmt.Errorf("reldb: unknown column type %q", t.text)
	}
}

func (p *parser) drop() (Statement, error) {
	p.pos++ // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name, IfExists: ifExists}, nil
}

func (p *parser) insert() (Statement, error) {
	p.pos++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.acceptSymbol("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return &InsertStmt{Table: table, Columns: cols, Rows: rows}, nil
}

func (p *parser) delete() (Statement, error) {
	p.pos++ // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var where Expr
	if p.acceptKeyword("WHERE") {
		where, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	return &DeleteStmt{Table: table, Where: where}, nil
}

func (p *parser) update() (Statement, error) {
	p.pos++ // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	var sets []SetClause
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		sets = append(sets, SetClause{Column: col, Value: e})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	var where Expr
	if p.acceptKeyword("WHERE") {
		where, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	return &UpdateStmt{Table: table, Sets: sets, Where: where}, nil
}

func (p *parser) selectStmt() (Statement, error) {
	p.pos++ // SELECT
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Name: name}
		ref.Alias = p.optionalAlias()
		st.From = &ref
		for {
			left := false
			switch {
			case p.acceptKeyword("JOIN"):
			case p.acceptKeyword("INNER"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
			case p.acceptKeyword("LEFT"):
				p.acceptKeyword("OUTER")
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				left = true
			case p.acceptKeyword("CROSS"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				jname, err := p.ident()
				if err != nil {
					return nil, err
				}
				jref := TableRef{Name: jname}
				jref.Alias = p.optionalAlias()
				st.Joins = append(st.Joins, JoinClause{Table: jref, On: &Lit{V: Bool(true)}})
				continue
			default:
				goto afterJoins
			}
			jname, err := p.ident()
			if err != nil {
				return nil, err
			}
			jref := TableRef{Name: jname}
			jref.Alias = p.optionalAlias()
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.expression()
			if err != nil {
				return nil, err
			}
			st.Joins = append(st.Joins, JoinClause{Left: left, Table: jref, On: on})
		}
	}
afterJoins:
	if p.acceptKeyword("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		st.Offset = n
	}
	return st, nil
}

func (p *parser) optionalAlias() string {
	if p.acceptKeyword("AS") {
		if p.cur().kind == tokIdent {
			return p.next().text
		}
		return ""
	}
	if p.cur().kind == tokIdent {
		return p.next().text
	}
	return ""
}

func (p *parser) intLiteral() (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("reldb: expected integer, found %q", t.text)
	}
	p.pos++
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("reldb: bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	// "*" or "tbl.*"
	if p.cur().kind == tokSymbol && p.cur().text == "*" {
		p.pos++
		return SelectItem{Star: true}, nil
	}
	if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokSymbol &&
		p.toks[p.pos+1].text == "." && p.toks[p.pos+2].kind == tokSymbol &&
		p.toks[p.pos+2].text == "*" {
		table := p.next().text
		p.pos += 2
		return SelectItem{Star: true, Table: table}, nil
	}
	e, err := p.expression()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		name, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = name
	} else if p.cur().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

// Expression precedence climbing.

func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	// Optional [NOT] before LIKE / IN / BETWEEN.
	negated := false
	if p.cur().kind == tokKeyword && p.cur().text == "NOT" &&
		p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "LIKE" || p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "BETWEEN") {
		p.pos++
		negated = true
	}
	switch {
	case p.cur().kind == tokSymbol && isCompareOp(p.cur().text):
		op := p.next().text
		if op == "<>" {
			op = "!="
		}
		r, err := p.additive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: l, R: r}, nil
	case p.acceptKeyword("LIKE"):
		r, err := p.additive()
		if err != nil {
			return nil, err
		}
		var e Expr = &Binary{Op: "LIKE", L: l, R: r}
		if negated {
			e = &Unary{Op: "NOT", X: e}
		}
		return e, nil
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: l, List: list, Not: negated}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.additive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.additive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: negated}, nil
	case p.acceptKeyword("IS"):
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: not}, nil
	}
	return l, nil
}

func isCompareOp(s string) bool {
	switch s {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) additive() (Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.pos++
			r, err := p.multiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) multiplicative() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.pos++
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) unary() (Expr, error) {
	if p.cur().kind == tokSymbol && p.cur().text == "-" {
		p.pos++
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.primary()
}

var aggregateFns = map[string]aggFn{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("reldb: bad number %q", t.text)
			}
			return &Lit{V: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("reldb: bad number %q", t.text)
		}
		return &Lit{V: Int(n)}, nil
	case tokString:
		p.pos++
		return &Lit{V: Text(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Lit{V: Null}, nil
		case "TRUE":
			p.pos++
			return &Lit{V: Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Lit{V: Bool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.pos++
			return p.callTail(t.text)
		}
		return nil, fmt.Errorf("reldb: unexpected keyword %q in expression", t.text)
	case tokIdent:
		// function call, qualified column, or bare column
		name := t.text
		if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			p.pos++
			return p.callTail(strings.ToUpper(name))
		}
		p.pos++
		if p.acceptSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("reldb: unexpected token %q in expression", t.text)
}

func (p *parser) callTail(fn string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	c := &Call{Fn: fn}
	if p.acceptSymbol("*") {
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		c.Star = true
		return c, nil
	}
	c.Distinct = p.acceptKeyword("DISTINCT")
	if !p.acceptSymbol(")") {
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			c.Args = append(c.Args, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// hasAggregate reports whether e contains an aggregate function call.
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *Call:
		if _, ok := aggregateFns[x.Fn]; ok {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *Unary:
		return hasAggregate(x.X)
	case *Binary:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *InExpr:
		if hasAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if hasAggregate(a) {
				return true
			}
		}
	case *IsNullExpr:
		return hasAggregate(x.X)
	case *BetweenExpr:
		return hasAggregate(x.X) || hasAggregate(x.Lo) || hasAggregate(x.Hi)
	}
	return false
}
