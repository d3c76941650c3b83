// Package lint is iGDB's project-aware static analyzer framework, built
// from scratch on go/parser, go/ast, and go/types only — no
// golang.org/x/tools. It loads packages via `go list -export` (see load.go)
// and runs a fixed set of analyzers that encode repository-wide invariants
// the Go compiler cannot check: SQL/schema consistency, error-handling and
// logging discipline, lock discipline, and dead code. The
// cmd/igdblint binary is a thin CLI over this package.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the rule that fired, and a
// human-readable message.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col: rule: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ImportPath string

	linter *Linter
	rule   string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.linter.report(p.Fset.Position(pos), p.rule, fmt.Sprintf(format, args...))
}

// Internal reports whether the package under analysis is an internal
// (non-test, non-example) package — several analyzers only apply there.
func (p *Pass) Internal() bool {
	return strings.Contains(p.ImportPath, "/internal/") || strings.HasPrefix(p.ImportPath, "internal/")
}

// Analyzer is one named rule. Run is invoked once per package; Finish, if
// set, once after every package has been visited, for cross-package rules:
// sqlcheck must see every CREATE TABLE literal before it runs a statement,
// and callgraph every package's uses before it calls a function unused.
type Analyzer struct {
	Name string
	Doc  string // one line, shown by igdblint -rules
	Run  func(*Pass)
	// Finish reports via the callback; positions were resolved during Run.
	Finish func(report func(pos token.Position, format string, args ...any))
}

// Linter runs a set of analyzers over loaded packages and collects
// findings, applying //lint:ignore suppressions.
type Linter struct {
	Analyzers []*Analyzer

	findings   []Finding
	suppressed map[suppressKey]*directive
}

type suppressKey struct {
	file string
	line int
	rule string
}

type directive struct {
	pos  token.Position
	rule string
	used bool
}

// NewLinter returns a linter with the full iGDB analyzer set. Analyzer
// state is per-linter, so each Run is independent.
func NewLinter() *Linter {
	l := &Linter{suppressed: make(map[suppressKey]*directive)}
	l.Analyzers = []*Analyzer{
		newSQLCheck(),
		newErrDrop(),
		newLogDiscipline(),
		newGuardedBy(),
		newLockOrder(),
		newCallGraphCheck(),
		// directive must stay last: its Finish sees which suppressions the
		// other analyzers' findings actually used.
		l.newDirectiveCheck(),
	}
	return l
}

// newDirectiveCheck audits the //lint:ignore directives themselves:
// malformed ones are reported during scanning, and a well-formed directive
// that suppressed zero findings is dead weight that hides future bugs.
func (l *Linter) newDirectiveCheck() *Analyzer {
	a := &Analyzer{
		Name: "directive",
		Doc:  "//lint:ignore directives must be well-formed, name a known rule, give a reason, and suppress at least one finding",
		Run:  func(*Pass) {},
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		seen := map[*directive]bool{}
		ds := make([]*directive, 0, len(l.suppressed))
		for _, d := range l.suppressed {
			if !seen[d] {
				seen[d] = true
				ds = append(ds, d)
			}
		}
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].pos.Filename != ds[j].pos.Filename {
				return ds[i].pos.Filename < ds[j].pos.Filename
			}
			return ds[i].pos.Line < ds[j].pos.Line
		})
		for _, d := range ds {
			if !d.used {
				report(d.pos, "//lint:ignore %s suppresses no finding; delete it", d.rule)
			}
		}
	}
	return a
}

// Run lints every package and returns the surviving findings in
// deterministic order (file, line, column, rule, message).
//
// Directives are scanned once over every package. Then each package, in
// load order (Load lists dependencies before their dependents), goes
// through every analyzer's per-package pass. The Finish hooks run last,
// in registration order, so directive's hook sees which suppressions the
// other analyzers used.
func (l *Linter) Run(pkgs []*Package, fset *token.FileSet) []Finding {
	for _, pkg := range pkgs {
		l.scanDirectives(pkg, fset)
	}
	for _, pkg := range pkgs {
		for _, a := range l.Analyzers {
			a.Run(&Pass{
				Fset:       fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ImportPath: pkg.ImportPath,
				linter:     l,
				rule:       a.Name,
			})
		}
	}
	for _, a := range l.Analyzers {
		if a.Finish == nil {
			continue
		}
		a.Finish(func(pos token.Position, format string, args ...any) {
			l.report(pos, a.Name, fmt.Sprintf(format, args...))
		})
	}
	sort.Slice(l.findings, func(i, j int) bool {
		a, b := l.findings[i], l.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return l.findings
}

func (l *Linter) report(pos token.Position, rule, msg string) {
	if d, ok := l.suppressed[suppressKey{pos.Filename, pos.Line, rule}]; ok {
		d.used = true
		return
	}
	l.findings = append(l.findings, Finding{
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Rule:    rule,
		Message: msg,
	})
}

// directiveRE matches //lint:ignore <rule> <reason>.
var directiveRE = regexp.MustCompile(`^//lint:ignore(?:\s+(\S+))?(?:\s+(.+))?$`)

// scanDirectives registers every //lint:ignore directive in pkg. A
// directive suppresses findings of the named rule on its own line (trailing
// comment) or on the following line (preceding comment). Unknown rule names
// and missing reasons are themselves findings under the "directive" rule.
func (l *Linter) scanDirectives(pkg *Package, fset *token.FileSet) {
	known := make(map[string]bool, len(l.Analyzers))
	for _, a := range l.Analyzers {
		known[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:ignore") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil || m[1] == "" {
					l.report(pos, "directive", "malformed //lint:ignore: want //lint:ignore <rule> <reason>")
					continue
				}
				rule, reason := m[1], strings.TrimSpace(m[2])
				if !known[rule] {
					l.report(pos, "directive", fmt.Sprintf("//lint:ignore names unknown rule %q", rule))
					continue
				}
				if reason == "" {
					l.report(pos, "directive", fmt.Sprintf("//lint:ignore %s needs a reason", rule))
					continue
				}
				d := &directive{pos: pos, rule: rule}
				l.suppressed[suppressKey{pos.Filename, pos.Line, rule}] = d
				l.suppressed[suppressKey{pos.Filename, pos.Line + 1, rule}] = d
			}
		}
	}
}

// ---- shared type helpers ----

var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// calleeObject resolves the function or method object a call invokes, or
// nil for indirect calls (function values, conversions).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// isPkgFunc reports whether obj is a function from the named package (by
// exact import path) with one of the given names.
func isPkgFunc(obj types.Object, pkgPath string, names ...string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

// derefNamed returns t's named type through one pointer, or nil.
func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// funcSig returns fn's *types.Signature (every *types.Func has one).
func funcSig(fn *types.Func) *types.Signature {
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

// namedReceiver returns the named type of a method's receiver (through one
// pointer), or nil.
func namedReceiver(sig *types.Signature) *types.Named {
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return derefNamed(sig.Recv().Type())
}

// constString returns the compile-time constant string value of e, if any.
// It sees through const references and concatenation of literals, exactly
// what the type checker can fold.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	if tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
