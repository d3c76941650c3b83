package lint

// callgraph.go holds the callgraph dead-code rule. It builds no graph:
// go/types records in Info.Uses every identifier that names a function,
// whether it is called, taken as a value, named by a method value or
// expression, or referenced from a package-level var initializer, and an
// instantiated generic function or method leads back to its declaration
// through Origin. A call through an interface names only the interface's
// method, so a method also counts as used when its receiver implements an
// interface visible to the project (declared at package scope in a loaded
// package or an import) that has a method of its name. A method that
// satisfies only a function-local or anonymous interface is therefore
// reported dead; declare that interface at package scope.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// newCallGraphCheck builds the callgraph analyzer. An unexported function
// or method that no loaded package uses and that satisfies no visible
// interface is dead code: the project compiles without it.
func newCallGraphCheck() *Analyzer {
	type declared struct {
		fn  *types.Func
		pos token.Position
	}
	var (
		decls   []declared
		used    = map[*types.Func]bool{}
		ifaces  []*types.Interface
		scanned = map[*types.Package]bool{}
	)
	a := &Analyzer{
		Name: "callgraph",
		Doc:  "unexported functions must be used: called, taken as a value, or satisfying a visible interface (dead code otherwise)",
	}
	a.Run = func(pass *Pass) {
		for _, obj := range pass.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pass.Info.Defs[d.Name].(*types.Func)
				name := d.Name.Name
				if fn == nil || ast.IsExported(name) || name == "main" || name == "init" || name == "_" {
					continue
				}
				decls = append(decls, declared{fn: fn, pos: pass.Fset.Position(d.Name.Pos())})
			}
		}
		ifaces = visibleInterfaces(pass.Pkg, scanned, ifaces)
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		for _, d := range decls {
			if used[d.fn] || satisfiesVisibleInterface(d.fn, ifaces) {
				continue
			}
			report(d.pos, "%s is never called, never taken as a value, and satisfies no visible interface; dead code", funcDisplayName(d.fn))
		}
	}
	return a
}

// visibleInterfaces appends to out every interface with at least one
// method declared at package scope in p or in its (transitive) imports,
// skipping packages already in scanned.
func visibleInterfaces(p *types.Package, scanned map[*types.Package]bool, out []*types.Interface) []*types.Interface {
	if p == nil || scanned[p] {
		return out
	}
	scanned[p] = true
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			out = append(out, iface)
		}
	}
	for _, imp := range p.Imports() {
		out = visibleInterfaces(imp, scanned, out)
	}
	return out
}

// satisfiesVisibleInterface reports whether method fn has the name of a
// method of one of ifaces and its receiver type (or a pointer to it)
// implements that interface. It is false for plain functions.
func satisfiesVisibleInterface(fn *types.Func, ifaces []*types.Interface) bool {
	sig := funcSig(fn)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	for _, iface := range ifaces {
		if !hasMethodNamed(iface, fn.Name()) {
			continue
		}
		if types.Implements(recv, iface) {
			return true
		}
		if _, isPtr := recv.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// hasMethodNamed reports whether iface has a method called name.
func hasMethodNamed(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// funcDisplayName renders pkg.Func or pkg.(*T).Method.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig := funcSig(fn); sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		ptr := ""
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			ptr = "*"
		}
		if named, ok := recv.(*types.Named); ok {
			return fmt.Sprintf("%s(%s%s).%s", pkg, ptr, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + fn.Name()
}
