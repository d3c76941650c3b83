package reldb

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrStmtClosed is returned by Query on a statement whose plan has been
// released with Close.
var ErrStmtClosed = errors.New("reldb: statement is closed")

// ErrNotSelect is returned by Prepare (and wrapped by Classify callers) when
// a statement parses correctly but is not a read-only SELECT. Servers use it
// to distinguish "forbidden statement type" from "malformed SQL".
var ErrNotSelect = errors.New("reldb: statement is not a SELECT")

// Stmt is a prepared SELECT: the SQL text is lexed and parsed exactly once,
// then the cached plan can be executed any number of times (concurrently)
// without re-parsing. Statements are bound to the DB that prepared them.
//
// A Stmt sees the table contents current at each Query call, not at Prepare
// time: it caches the parse, and each Query binds it against the tables
// current then. It is not a snapshot.
type Stmt struct {
	db      *DB
	sel     *SelectStmt
	explain *ExplainStmt // non-nil when the statement is EXPLAIN [ANALYZE]
	closed  atomic.Bool
}

// Prepare parses a read-only statement once and returns a reusable plan.
// SELECT and EXPLAIN [ANALYZE] are accepted (plain EXPLAIN of any statement
// is read-only planning; EXPLAIN ANALYZE requires a SELECT since execution
// happens under a shared lock). Any other statement type returns
// ErrNotSelect; malformed SQL returns the parse error. Safe for concurrent
// use, like all DB methods.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		return &Stmt{db: db, sel: s}, nil
	case *ExplainStmt:
		if s.Analyze {
			if _, ok := s.Stmt.(*SelectStmt); !ok {
				return nil, fmt.Errorf("%w (EXPLAIN ANALYZE of %s)", ErrNotSelect, StatementKind(s.Stmt))
			}
		}
		return &Stmt{db: db, explain: s}, nil
	default:
		return nil, fmt.Errorf("%w (got %s)", ErrNotSelect, StatementKind(st))
	}
}

// IsExplain reports whether the prepared statement is an EXPLAIN (with or
// without ANALYZE).
func (s *Stmt) IsExplain() bool { return s.explain != nil }

// IsAnalyze reports whether the prepared statement is an EXPLAIN ANALYZE.
func (s *Stmt) IsAnalyze() bool { return s.explain != nil && s.explain.Analyze }

// Explain is ExplainContext with a context that is never done.
func (s *Stmt) Explain() (*PlanNode, error) { return s.ExplainContext(context.Background()) }

// ExplainContext runs the prepared EXPLAIN and returns the structured plan
// tree (freshly planned — and for ANALYZE freshly executed — per call, so
// timings and row counts reflect the current table contents). An ANALYZE
// execution stops with ctx's error once ctx is done. Returns ErrNotSelect
// when the statement is not an EXPLAIN.
func (s *Stmt) ExplainContext(ctx context.Context) (*PlanNode, error) {
	if s.closed.Load() {
		return nil, ErrStmtClosed
	}
	if s.explain == nil {
		return nil, fmt.Errorf("%w (statement is not EXPLAIN)", ErrNotSelect)
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.db.explainLocked(ctx, s.explain)
}

// Query is QueryContext with a context that is never done.
func (s *Stmt) Query() (*Rows, error) { return s.QueryContext(context.Background()) }

// QueryContext executes the prepared plan against the current table
// contents, and stops with ctx's error once ctx is done: the executor
// looks at ctx once per 1,024 rows it reads or joins, pairs it probes or
// groups it emits.
// The plan is shared and never mutated by execution, so concurrent calls
// on one Stmt are safe. EXPLAIN statements yield the plan tree as
// single-column text rows.
func (s *Stmt) QueryContext(ctx context.Context) (*Rows, error) {
	if s.closed.Load() {
		return nil, ErrStmtClosed
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	if s.explain != nil {
		plan, err := s.db.explainLocked(ctx, s.explain)
		if err != nil {
			return nil, err
		}
		return plan.Rows(), nil
	}
	return s.db.execSelect(ctx, s.sel)
}

// Close marks the statement closed: further Query calls return
// ErrStmtClosed. It frees nothing, since a statement holds only its parse
// tree, which the garbage collector reclaims once the statement is
// unreferenced, so dropping a statement without Close leaks nothing. Close
// is idempotent and safe for concurrent use.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}

// StatementKind names a parsed statement's type ("SELECT", "INSERT", ...),
// for error messages and statement-type gating.
func StatementKind(st Statement) string {
	switch st.(type) {
	case *SelectStmt:
		return "SELECT"
	case *InsertStmt:
		return "INSERT"
	case *UpdateStmt:
		return "UPDATE"
	case *DeleteStmt:
		return "DELETE"
	case *CreateTableStmt:
		return "CREATE TABLE"
	case *CreateIndexStmt:
		return "CREATE INDEX"
	case *DropTableStmt:
		return "DROP TABLE"
	case *ExplainStmt:
		return "EXPLAIN"
	default:
		return fmt.Sprintf("%T", st)
	}
}
