package reldb

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DB is an in-memory relational database. All methods are safe for
// concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table     // guarded by mu
	funcs  map[string]ScalarFunc // guarded by mu
}

// ScalarFunc is a Go-implemented SQL scalar function. iGDB registers
// geographic helpers (e.g. GEO_DIST) through RegisterFunc.
type ScalarFunc func(args []Value) (Value, error)

// New creates an empty database with the built-in scalar functions
// (UPPER, LOWER, LENGTH, SUBSTR, ABS, ROUND, COALESCE, IIF).
func New() *DB {
	db := &DB{tables: make(map[string]*Table), funcs: make(map[string]ScalarFunc)}
	registerBuiltins(db)
	return db
}

// RegisterFunc installs (or replaces) a scalar SQL function. Names are
// case-insensitive.
func (db *DB) RegisterFunc(name string, fn ScalarFunc) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.funcs[strings.ToUpper(name)] = fn
}

// Table is one relation: a schema plus row storage and optional hash
// indexes.
type Table struct {
	Name    string
	Cols    []ColumnDef
	Rows    [][]Value
	colIdx  map[string]int
	indexes map[int]map[string][]int // column position -> value key -> row ids
}

func newTable(name string, cols []ColumnDef) (*Table, error) {
	t := &Table{
		Name:    name,
		Cols:    cols,
		colIdx:  make(map[string]int, len(cols)),
		indexes: make(map[int]map[string][]int),
	}
	for i, c := range cols {
		lower := strings.ToLower(c.Name)
		if _, dup := t.colIdx[lower]; dup {
			return nil, fmt.Errorf("reldb: duplicate column %q in table %q", c.Name, name)
		}
		t.colIdx[lower] = i
	}
	return t, nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

func (t *Table) addIndex(col int) {
	if _, exists := t.indexes[col]; exists {
		return
	}
	idx := make(map[string][]int)
	for rowID, row := range t.Rows {
		k := row[col].key()
		idx[k] = append(idx[k], rowID)
	}
	t.indexes[col] = idx
}

func (t *Table) appendRow(row []Value) {
	rowID := len(t.Rows)
	t.Rows = append(t.Rows, row)
	for col, idx := range t.indexes {
		k := row[col].key()
		idx[k] = append(idx[k], rowID)
	}
}

// rebuildIndexes recreates all hash indexes after bulk deletion/update.
func (t *Table) rebuildIndexes() {
	for col := range t.indexes {
		idx := make(map[string][]int)
		for rowID, row := range t.Rows {
			k := row[col].key()
			idx[k] = append(idx[k], rowID)
		}
		t.indexes[col] = idx
	}
}

// Rows is a query result set.
type Rows struct {
	Columns []string
	Rows    [][]Value
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Rows) }

// Col returns the index of the named output column, or -1.
func (r *Rows) Col(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Exec parses and runs a statement, returning the number of affected rows
// (for DML) or 0.
func (db *DB) Exec(sql string) (int, error) {
	st, err := ParseStatement(sql)
	if err != nil {
		return 0, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		return 0, fmt.Errorf("reldb: use Query for SELECT")
	case *ExplainStmt:
		return 0, fmt.Errorf("reldb: use Query for EXPLAIN")
	case *CreateTableStmt:
		return 0, db.createTable(s)
	case *CreateIndexStmt:
		return 0, db.createIndex(s)
	case *DropTableStmt:
		return 0, db.dropTable(s)
	case *InsertStmt:
		return db.insert(s)
	case *DeleteStmt:
		return db.deleteRows(s)
	case *UpdateStmt:
		return db.updateRows(s)
	default:
		return 0, fmt.Errorf("reldb: unhandled statement %T", st)
	}
}

// MustExec runs Exec and panics on error; for setup code and tests.
func (db *DB) MustExec(sql string) int {
	n, err := db.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("reldb: %v\n  in: %s", err, sql))
	}
	return n
}

// Query parses and runs a SELECT, or an EXPLAIN [ANALYZE] of any statement
// (EXPLAIN output is the plan tree rendered as single-column text rows; use
// Explain for the structured tree).
func (db *DB) Query(sql string) (*Rows, error) {
	st, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.execSelect(context.Background(), s)
	case *ExplainStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		plan, err := db.explainLocked(context.Background(), s)
		if err != nil {
			return nil, err
		}
		return plan.Rows(), nil
	default:
		return nil, fmt.Errorf("reldb: Query requires SELECT")
	}
}

// Explain plans sql (which may but need not carry an EXPLAIN prefix) and
// returns the structured plan tree. With analyze true the statement must be
// a SELECT; it is executed and the tree carries actual row counts and
// per-operator timings.
func (db *DB) Explain(sql string, analyze bool) (*PlanNode, error) {
	st, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	ex, ok := st.(*ExplainStmt)
	if !ok {
		ex = &ExplainStmt{Stmt: st}
	}
	ex.Analyze = ex.Analyze || analyze
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.explainLocked(context.Background(), ex)
}

// MustQuery runs Query and panics on error.
func (db *DB) MustQuery(sql string) *Rows {
	r, err := db.Query(sql)
	if err != nil {
		panic(fmt.Sprintf("reldb: %v\n  in: %s", err, sql))
	}
	return r
}

// Table returns the named table (case-insensitive) or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// BulkInsert appends pre-built rows to a table without SQL parsing — the
// fast path the ETL pipeline uses. Each row must have one value per column;
// values are coerced to the column types.
func (db *DB) BulkInsert(table string, rows [][]Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("reldb: no such table %q", table)
	}
	for _, row := range rows {
		if len(row) != len(t.Cols) {
			return fmt.Errorf("reldb: table %q has %d columns, row has %d", table, len(t.Cols), len(row))
		}
		stored := make([]Value, len(row))
		for i, v := range row {
			cv, err := coerce(v, t.Cols[i].Type)
			if err != nil {
				return fmt.Errorf("reldb: column %q: %v", t.Cols[i].Name, err)
			}
			stored[i] = cv
		}
		t.appendRow(stored)
	}
	return nil
}

func (db *DB) createTable(s *CreateTableStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, exists := db.tables[key]; exists {
		return fmt.Errorf("reldb: table %q already exists", s.Name)
	}
	t, err := newTable(s.Name, s.Cols)
	if err != nil {
		return err
	}
	db.tables[key] = t
	return nil
}

func (db *DB) createIndex(s *CreateIndexStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return fmt.Errorf("reldb: no such table %q", s.Table)
	}
	col := t.ColumnIndex(s.Column)
	if col < 0 {
		return fmt.Errorf("reldb: no column %q in table %q", s.Column, s.Table)
	}
	t.addIndex(col)
	return nil
}

func (db *DB) dropTable(s *DropTableStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, ok := db.tables[key]; !ok {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("reldb: no such table %q", s.Name)
	}
	delete(db.tables, key)
	return nil
}

// boundDML is an INSERT, UPDATE or DELETE resolved against its table:
// the table, the position of every column it writes, INSERT's arity and
// every expression bound. The executors and EXPLAIN share it, so a plain
// EXPLAIN fails on the names execution would fail on.
type boundDML struct {
	t       *Table
	targets []int      // INSERT and UPDATE: table position of each written column
	rows    [][]*bexpr // INSERT: the VALUES rows, one expression per target
	where   *bexpr     // UPDATE and DELETE; nil matches every row
	sets    []*bexpr   // UPDATE: the value written to each target
}

// bindDML resolves st, an INSERT, UPDATE or DELETE. The caller holds
// db.mu.
func (db *DB) bindDML(st Statement) (*boundDML, error) {
	var name string
	switch s := st.(type) {
	case *InsertStmt:
		name = s.Table
	case *DeleteStmt:
		name = s.Table
	case *UpdateStmt:
		name = s.Table
	}
	//lint:ignore guardedby callers hold db.mu
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("reldb: no such table %q", name)
	}
	b := &boundDML{t: t}
	column := func(c string) (int, error) {
		i := t.ColumnIndex(c)
		if i < 0 {
			return 0, fmt.Errorf("reldb: no column %q in table %q", c, name)
		}
		return i, nil
	}
	var err error
	switch s := st.(type) {
	case *InsertStmt:
		if len(s.Columns) == 0 {
			for i := range t.Cols {
				b.targets = append(b.targets, i)
			}
		}
		for _, c := range s.Columns {
			i, err := column(c)
			if err != nil {
				return nil, err
			}
			b.targets = append(b.targets, i)
		}
		values := binder{db: db, clause: "VALUES"}
		b.rows = make([][]*bexpr, len(s.Rows))
		for r, exprRow := range s.Rows {
			if len(exprRow) != len(b.targets) {
				return nil, fmt.Errorf("reldb: INSERT expects %d values, got %d", len(b.targets), len(exprRow))
			}
			b.rows[r] = make([]*bexpr, len(exprRow))
			for i, e := range exprRow {
				if b.rows[r][i], err = values.bind(e); err != nil {
					return nil, err
				}
			}
		}
	case *DeleteStmt:
		if b.where, err = tableBinder(db, t, "WHERE").bind(s.Where); err != nil {
			return nil, err
		}
	case *UpdateStmt:
		b.targets = make([]int, len(s.Sets))
		for i, set := range s.Sets {
			if b.targets[i], err = column(set.Column); err != nil {
				return nil, err
			}
		}
		bd := tableBinder(db, t, "WHERE")
		if b.where, err = bd.bind(s.Where); err != nil {
			return nil, err
		}
		bd.clause = "SET"
		b.sets = make([]*bexpr, len(s.Sets))
		for i, set := range s.Sets {
			if b.sets[i], err = bd.bind(set.Value); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// tableBinder binds the expressions of a DELETE or UPDATE, which run on
// one table's rows.
func tableBinder(db *DB, t *Table, clause string) binder {
	sch := newSchema()
	sch.addTable(t.Name, t)
	return binder{db: db, sch: sch, clause: clause}
}

func (db *DB) insert(s *InsertStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	b, err := db.bindDML(s)
	if err != nil {
		return 0, err
	}
	t := b.t
	env := &evalEnv{}
	inserted := 0
	for _, exprRow := range b.rows {
		row := make([]Value, len(t.Cols))
		for i := range row {
			row[i] = Null
		}
		for i, x := range exprRow {
			v, err := env.eval(x)
			if err != nil {
				return inserted, err
			}
			pos := b.targets[i]
			cv, err := coerce(v, t.Cols[pos].Type)
			if err != nil {
				return inserted, fmt.Errorf("reldb: column %q: %v", t.Cols[pos].Name, err)
			}
			row[pos] = cv
		}
		t.appendRow(row)
		inserted++
	}
	return inserted, nil
}

func (db *DB) deleteRows(s *DeleteStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	b, err := db.bindDML(s)
	if err != nil {
		return 0, err
	}
	t := b.t
	kept := t.Rows[:0]
	deleted := 0
	env := &evalEnv{}
	for _, row := range t.Rows {
		env.row = row
		match, err := env.holds(b.where)
		if err != nil {
			return 0, err
		}
		if match {
			deleted++
		} else {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	t.rebuildIndexes()
	return deleted, nil
}

func (db *DB) updateRows(s *UpdateStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	b, err := db.bindDML(s)
	if err != nil {
		return 0, err
	}
	t := b.t
	updated := 0
	env := &evalEnv{}
	for rowID, row := range t.Rows {
		env.row = row
		match, err := env.holds(b.where)
		if err != nil {
			return updated, err
		}
		if !match {
			continue
		}
		newRow := make([]Value, len(row))
		copy(newRow, row)
		for i, x := range b.sets {
			v, err := env.eval(x)
			if err != nil {
				return updated, err
			}
			cv, err := coerce(v, t.Cols[b.targets[i]].Type)
			if err != nil {
				return updated, err
			}
			newRow[b.targets[i]] = cv
		}
		t.Rows[rowID] = newRow
		updated++
	}
	if updated > 0 {
		t.rebuildIndexes()
	}
	return updated, nil
}
