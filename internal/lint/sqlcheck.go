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
// must parse with reldb.ParseStatement and reference only tables and
// columns that exist — either in the canonical core schema
// (core.SchemaTables, derived from core.SchemaDDL) or in a CREATE TABLE
// statement harvested from the same lint run. Query/schema drift therefore
// fails at lint time instead of at runtime.
func newSQLCheck() *Analyzer {
	type parsed struct {
		pos  token.Position
		sql  string
		stmt reldb.Statement
	}
	var (
		stmts      []parsed
		parseFails []SQLUse
	)
	a := &Analyzer{
		Name: "sqlcheck",
		Doc:  "SQL literals must parse and match the canonical core schema (tables and columns)",
	}
	a.Run = func(pass *Pass) {
		for _, use := range harvestForPass(pass) {
			st, err := reldb.ParseStatement(use.SQL)
			if err != nil {
				parseFails = append(parseFails, SQLUse{Pos: use.Pos, SQL: err.Error()})
				continue
			}
			stmts = append(stmts, parsed{pos: use.Pos, sql: use.SQL, stmt: st})
		}
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		for _, pf := range parseFails {
			report(pf.Pos, "parse error: %s", pf.SQL)
		}
		schema := core.SchemaTables()
		for _, p := range stmts {
			if ct, ok := p.stmt.(*reldb.CreateTableStmt); ok {
				schema.AddCreate(ct)
			}
		}
		for _, p := range stmts {
			for _, issue := range reldb.ValidateStatement(p.stmt, schema) {
				report(p.pos, "%s (in: %s)", issue, compactSQL(p.sql))
			}
		}
	}
	return a
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
