package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"igdb/internal/core"
	"igdb/internal/reldb"
)

// reldbEntryPoints are the *reldb.DB methods whose first argument is a SQL
// statement.
var reldbEntryPoints = map[string]bool{
	"Query": true, "MustQuery": true, "Exec": true, "MustExec": true, "Prepare": true,
}

// sqlPrefixRE recognizes string literals that are SQL statements even when
// they are not passed directly to a reldb call (table-driven query lists,
// consts). Literals containing % verbs are fmt templates, not complete
// statements, and are skipped.
var sqlPrefixRE = regexp.MustCompile(`(?i)^\s*(EXPLAIN\s+(ANALYZE\s+)?)?(SELECT|INSERT\s+INTO|CREATE\s+TABLE|CREATE\s+INDEX|UPDATE|DELETE\s+FROM|DROP\s+TABLE)\s+\S`)

// SQLUse is one harvested SQL statement: where it appears and its text.
type SQLUse struct {
	Pos token.Position
	SQL string
}

// HarvestSQL collects every statically-known SQL statement in pkg: constant
// string arguments to reldb Query/MustQuery/Exec/MustExec/Prepare, consts
// and vars whose name ends in SQL, and any string literal that starts like
// a SQL statement (covering table-driven query slices). Dynamic SQL — built
// with fmt.Sprintf or received over the wire — cannot be harvested and is
// checked at runtime instead. The same harvest seeds the reldb parser fuzz
// corpus, so the fuzzer replays every query the codebase actually issues.
func HarvestSQL(pkg *Package, fset *token.FileSet) []SQLUse {
	// The SQL engine itself is full of keyword fragments ("SELECT", "CREATE
	// TABLE") that are syntax elements, not statements; the prefix heuristic
	// does not apply there. Literals passed to reldb entry points and *SQL
	// consts are still harvested.
	engine := strings.HasSuffix(pkg.ImportPath, "internal/reldb")
	seen := make(map[token.Pos]bool)
	var uses []SQLUse
	add := func(pos token.Pos, sql string) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		uses = append(uses, SQLUse{Pos: fset.Position(pos), SQL: sql})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if len(x.Args) == 0 {
					break
				}
				sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
				if !ok || !reldbEntryPoints[sel.Sel.Name] {
					break
				}
				selection, ok := pkg.Info.Selections[sel]
				if !ok {
					break
				}
				named := derefNamed(selection.Recv())
				if named == nil || named.Obj().Name() != "DB" || named.Obj().Pkg() == nil ||
					!strings.HasSuffix(named.Obj().Pkg().Path(), "internal/reldb") {
					break
				}
				if s, ok := constString(pkg.Info, x.Args[0]); ok {
					add(x.Args[0].Pos(), s)
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if !strings.HasSuffix(name.Name, "SQL") || i >= len(x.Values) {
						continue
					}
					if s, ok := constString(pkg.Info, x.Values[i]); ok {
						add(x.Values[i].Pos(), s)
					}
				}
			case *ast.BasicLit:
				if x.Kind != token.STRING || engine {
					break
				}
				if s, ok := constString(pkg.Info, x); ok {
					if sqlPrefixRE.MatchString(s) && !strings.Contains(s, "%") {
						add(x.Pos(), s)
					}
				}
			}
			return true
		})
	}
	return uses
}

// newSQLCheck builds the sqlcheck analyzer: every harvested SQL statement
// must parse with reldb.ParseStatement and then run in reldb itself, alone,
// in an empty database of its own (see runAlone) that holds the canonical
// core schema (core.SchemaDDL) and every CREATE TABLE harvested in the same
// lint run. Names are resolved by the engine's own binder, so a statement
// lint passes is one the engine accepts, and query/schema drift fails at
// lint time, with the engine's message, instead of at run time.
func newSQLCheck() *Analyzer {
	var uses []SQLUse
	a := &Analyzer{
		Name: "sqlcheck",
		Doc:  "SQL literals must parse and run in reldb against the canonical core schema (an empty database per statement)",
	}
	a.Run = func(pass *Pass) {
		uses = append(uses, harvestForPass(pass)...)
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		type parsed struct {
			use  SQLUse
			stmt reldb.Statement
		}
		var stmts []parsed
		ddl := append([]string(nil), core.SchemaDDL...)
		for _, use := range uses {
			st, err := reldb.ParseStatement(use.SQL)
			if err != nil {
				report(use.Pos, "parse error: %s", err)
				continue
			}
			stmts = append(stmts, parsed{use: use, stmt: st})
			if _, ok := st.(*reldb.CreateTableStmt); ok {
				ddl = append(ddl, use.SQL)
			}
		}
		// The schema is the DDL that runs, in order, in one database: a
		// table created twice keeps its first definition, and a CREATE
		// TABLE that fails is reported at its own site.
		base := reldb.New()
		var schema []string
		for _, s := range ddl {
			if _, err := base.Exec(s); err == nil {
				schema = append(schema, s)
			}
		}
		for _, p := range stmts {
			if err := runAlone(p.use.SQL, p.stmt, schema); err != nil {
				report(p.use.Pos, "%s (in: %s)", strings.TrimPrefix(err.Error(), "reldb: "), compactSQL(p.use.SQL))
			}
		}
	}
	return a
}

// runAlone runs sql, parsed as st, in a new empty database, so a write
// checks only itself. Every statement but a CREATE TABLE, plain or under
// EXPLAIN, runs after the DDL in schema. A CREATE TABLE runs in a
// database with no tables: the harvest includes SchemaDDL's own CREATE
// TABLEs, and a table created twice is no finding. An EXPLAIN of a SELECT
// runs as EXPLAIN ANALYZE, since plain EXPLAIN shows a plan even for a
// SELECT that does not bind.
func runAlone(sql string, st reldb.Statement, schema []string) error {
	db := reldb.New()
	inner := st
	if ex, ok := st.(*reldb.ExplainStmt); ok {
		inner = ex.Stmt
	}
	if _, create := inner.(*reldb.CreateTableStmt); !create {
		for _, ddl := range schema {
			if _, err := db.Exec(ddl); err != nil {
				return err
			}
		}
	}
	var err error
	switch s := st.(type) {
	case *reldb.SelectStmt:
		_, err = db.Query(sql)
	case *reldb.ExplainStmt:
		if _, ok := s.Stmt.(*reldb.SelectStmt); ok {
			_, err = db.Explain(sql, true)
		} else {
			_, err = db.Query(sql)
		}
	default:
		_, err = db.Exec(sql)
	}
	return err
}

// harvestForPass is HarvestSQL over the pass's package.
func harvestForPass(pass *Pass) []SQLUse {
	pkg := &Package{
		ImportPath: pass.ImportPath,
		Files:      pass.Files,
		Types:      pass.Pkg,
		Info:       pass.Info,
	}
	return HarvestSQL(pkg, pass.Fset)
}

// compactSQL renders sql on one line, truncated, for finding messages.
func compactSQL(sql string) string {
	s := strings.Join(strings.Fields(sql), " ")
	if len(s) > 80 {
		s = s[:77] + "..."
	}
	return s
}
