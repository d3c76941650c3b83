package lint

// callgraph.go builds the project-wide call graph that the callgraph
// dead-code rule reads. Nodes are declared functions and methods of the
// loaded packages, every function literal (attributed to its enclosing
// declaration), and the external functions the project calls (stdlib and
// dependency objects from export data, e.g. time.Sleep). A node's callers
// come from four kinds of edge:
//
//   - static: direct calls to a function, method, or immediately-invoked
//     literal, resolved through go/types;
//   - interface: dynamic dispatch through an interface method, resolved
//     CHA-style to every loaded concrete type that implements the
//     interface;
//   - funcvalue: indirect calls through a function-typed expression,
//     resolved CHA-style to every function or literal whose value is taken
//     somewhere in the project with an identical signature (this is how
//     `opts.Sleep(d)` resolves to time.Sleep);
//   - enclosing: a pseudo-edge from a declaration to each function literal
//     in its body — the literal may run whenever its encloser does, which
//     keeps reachability conservative for literals that are stored before
//     being invoked.
//
// The graph is deterministic: nodes and edges are recorded in (file, pos)
// source order per package and packages are merged in load order, so two
// builds over the same sources are identical.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CGNode is one function in the graph.
type CGNode struct {
	// Obj is the function object; nil for function literals.
	Obj *types.Func
	// Decl is the declaration, nil for literals and external functions.
	Decl *ast.FuncDecl
	// Lit is the literal, nil for declared and external functions.
	Lit *ast.FuncLit
	// Pkg is the loaded package that owns the body; nil for external
	// functions known only through export data.
	Pkg *Package
	// Callers holds the calling node of each edge into this one, in
	// deterministic order.
	Callers []*CGNode
	// ValueTaken lists the sites where this function is referenced as a
	// value (assigned, passed, stored) rather than called.
	ValueTaken []token.Pos

	name string
}

// Name returns the qualified display name: pkg.Func, pkg.(*T).Method, or
// pkg.Func$N for the N'th literal inside Func.
func (n *CGNode) Name() string { return n.name }

// Sig returns the node's signature, nil when unknown.
func (n *CGNode) Sig() *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil && n.Pkg != nil {
		if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

// CallGraph is the queryable project call graph.
type CallGraph struct {
	// Nodes lists every node in deterministic order: declared and literal
	// nodes in package load order then source order, then external nodes
	// sorted by name.
	Nodes []*CGNode

	funcs map[*types.Func]*CGNode
	lits  map[*ast.FuncLit]*CGNode

	// ifaces are all interface types (with at least one method) visible to
	// the loaded packages; the callgraph analyzer uses them to keep
	// interface-satisfying methods alive.
	ifaces []*types.Interface
}

// NodeOf returns the node for a declared or external function, creating an
// external node on first use. Generic instantiations share their origin's
// node.
func (g *CallGraph) NodeOf(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	if n, ok := g.funcs[fn]; ok {
		return n
	}
	n := &CGNode{Obj: fn, name: funcDisplayName(fn)}
	g.funcs[fn] = n
	return n
}

// funcDisplayName renders pkg.Func or pkg.(*T).Method.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
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

// pendingDynamic is one unresolved dynamic call site, resolved after every
// package has been scanned (CHA needs the whole program's types).
type pendingDynamic struct {
	caller *CGNode
	// iface is the interface method for interface dispatch; nil for
	// function-value calls.
	iface *types.Func
	// sig is the call signature for function-value dispatch.
	sig *types.Signature
}

// BuildCallGraph constructs the graph over the loaded packages.
func BuildCallGraph(pkgs []*Package, fset *token.FileSet) *CallGraph {
	g := &CallGraph{
		funcs: map[*types.Func]*CGNode{},
		lits:  map[*ast.FuncLit]*CGNode{},
	}
	var pending []pendingDynamic
	// takenBySig buckets value-taken functions and literals by canonical
	// signature string for function-value CHA.
	takenBySig := map[string][]*CGNode{}

	for _, pkg := range pkgs {
		g.scanPackage(pkg, &pending, takenBySig)
	}
	g.collectInterfaces(pkgs)

	named := g.allNamed(pkgs)
	for _, p := range pending {
		if p.iface != nil {
			g.resolveInterfaceCall(p, named)
		} else {
			g.resolveFuncValueCall(p, takenBySig)
		}
	}

	// External nodes referenced but never scanned join Nodes last, sorted.
	var ext []*CGNode
	seen := map[*CGNode]bool{}
	for _, n := range g.Nodes {
		seen[n] = true
	}
	for _, n := range g.funcs {
		if !seen[n] {
			ext = append(ext, n)
		}
	}
	sort.Slice(ext, func(i, j int) bool { return ext[i].name < ext[j].name })
	g.Nodes = append(g.Nodes, ext...)
	return g
}

// scanPackage records nodes, static edges, value-taken sites, and pending
// dynamic call sites for one package, in source order. Package-level var
// initializers (method-expression tables, handler registries) are scanned
// under a synthetic per-package init node so the functions they reference
// count as taken and their literals join the graph.
func (g *CallGraph) scanPackage(pkg *Package, pending *[]pendingDynamic, takenBySig map[string][]*CGNode) {
	var initNode *CGNode
	initFor := func() *CGNode {
		if initNode == nil {
			initNode = &CGNode{Pkg: pkg, name: pkg.Types.Name() + ".init·vars"}
			g.Nodes = append(g.Nodes, initNode)
		}
		return initNode
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := g.NodeOf(obj)
				n.Decl, n.Pkg = d, pkg
				g.Nodes = append(g.Nodes, n)
				if d.Body != nil {
					g.scanBody(n, pkg, d.Body, pending, takenBySig)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, value := range vs.Values {
						g.scanBody(initFor(), pkg, value, pending, takenBySig)
					}
				}
			}
		}
	}
}

// scanBody walks one function body (or package-level initializer
// expression): literals become child nodes (scanned recursively with an
// enclosing edge), calls become edges or pending dynamic sites, and
// function references become value-taken records. The callee name of a
// direct call is not a value use — only references outside call position
// feed the function-value CHA candidate set.
func (g *CallGraph) scanBody(owner *CGNode, pkg *Package, body ast.Node, pending *[]pendingDynamic, takenBySig map[string][]*CGNode) {
	litIdx := 0
	var walk func(n ast.Node) bool
	inspect := func(root ast.Node) {
		ast.Inspect(root, walk)
	}
	// descendCall walks a call's arguments and its Fun minus the callee
	// name itself, so called functions are not recorded as value-taken.
	descendCall := func(call *ast.CallExpr) {
		for _, arg := range call.Args {
			inspect(arg)
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			// the callee name: not a value use
		case *ast.SelectorExpr:
			inspect(fun.X)
		default:
			inspect(call.Fun)
		}
	}
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			g.scanCall(owner, pkg, x, pending, &litIdx, takenBySig)
			// An immediately-invoked literal was already linked statically
			// by scanCall but still needs its body scanned as a child node.
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				for _, arg := range x.Args {
					inspect(arg)
				}
				g.scanLit(owner, pkg, lit, &litIdx, pending, takenBySig)
			} else {
				descendCall(x)
			}
			return false
		case *ast.FuncLit:
			// A literal in value position: child node plus a value-taken
			// record for function-value CHA.
			ln := g.scanLit(owner, pkg, x, &litIdx, pending, takenBySig)
			ln.ValueTaken = append(ln.ValueTaken, x.Pos())
			if sig := ln.Sig(); sig != nil {
				key := sigKey(sig)
				takenBySig[key] = append(takenBySig[key], ln)
			}
			return false
		case *ast.Ident:
			g.noteValueUse(pkg, x, x, takenBySig)
		case *ast.SelectorExpr:
			g.noteValueUse(pkg, x.Sel, x, takenBySig)
			inspect(x.X)
			return false
		}
		return true
	}
	inspect(body)
}

// scanLit creates (and scans) the child node for one literal.
func (g *CallGraph) scanLit(owner *CGNode, pkg *Package, lit *ast.FuncLit, litIdx *int, pending *[]pendingDynamic, takenBySig map[string][]*CGNode) *CGNode {
	if n, ok := g.lits[lit]; ok {
		return n
	}
	*litIdx++
	n := &CGNode{
		Lit:  lit,
		Pkg:  pkg,
		name: fmt.Sprintf("%s$%d", owner.name, *litIdx),
	}
	g.lits[lit] = n
	g.Nodes = append(g.Nodes, n)
	g.addEdge(owner, n) // enclosing
	g.scanBody(n, pkg, lit.Body, pending, takenBySig)
	return n
}

// scanCall records one call expression from owner.
func (g *CallGraph) scanCall(owner *CGNode, pkg *Package, call *ast.CallExpr, pending *[]pendingDynamic, litIdx *int, takenBySig map[string][]*CGNode) {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		g.addEdge(owner, g.scanLit(owner, pkg, lit, litIdx, pending, takenBySig))
		return
	}
	// Conversions are not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	obj := calleeObject(pkg.Info, call)
	switch fn := obj.(type) {
	case *types.Func:
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if selection, ok := pkg.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
				if types.IsInterface(selection.Recv()) {
					*pending = append(*pending, pendingDynamic{caller: owner, iface: fn})
					return
				}
			}
		}
		g.addEdge(owner, g.NodeOf(fn))
	case *types.Builtin, *types.TypeName:
		// len/append/...; conversions through named types.
	default:
		// Indirect call through a function-typed expression (variable,
		// field, call result).
		tv, ok := pkg.Info.Types[call.Fun]
		if !ok || tv.Type == nil {
			return
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		*pending = append(*pending, pendingDynamic{caller: owner, sig: sig})
	}
}

// noteValueUse records a function referenced as a value: not the operand
// of a call expression (scanCall never descends there).
func (g *CallGraph) noteValueUse(pkg *Package, id *ast.Ident, ref ast.Expr, takenBySig map[string][]*CGNode) {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	n := g.NodeOf(fn)
	n.ValueTaken = append(n.ValueTaken, ref.Pos())
	// Bucket by the reference expression's type: a method value drops the
	// receiver, a method expression keeps it as the first parameter. The
	// reference type is what any call through the stored value must match.
	t := fn.Type()
	if tv, ok := pkg.Info.Types[ref]; ok && tv.Type != nil {
		t = tv.Type
	}
	if sig, ok := t.Underlying().(*types.Signature); ok {
		key := sigKey(sig)
		takenBySig[key] = append(takenBySig[key], n)
	}
}

// valueSig strips the receiver so method values bucket with plain funcs.
func valueSig(sig *types.Signature) *types.Signature {
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

// sigKey canonicalizes a signature for function-value CHA bucketing:
// receiver dropped, parameter and result names stripped (TypeString keeps
// them, and `func(d time.Duration)` must bucket with `func(time.Duration)`),
// package paths fully qualified.
func sigKey(sig *types.Signature) string {
	sig = valueSig(sig)
	canon := types.NewSignatureType(nil, nil, nil,
		unnamedTuple(sig.Params()), unnamedTuple(sig.Results()), sig.Variadic())
	return types.TypeString(canon, nil)
}

// unnamedTuple copies a tuple with the variable names erased.
func unnamedTuple(t *types.Tuple) *types.Tuple {
	if t == nil || t.Len() == 0 {
		return t
	}
	vars := make([]*types.Var, t.Len())
	for i := 0; i < t.Len(); i++ {
		vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
	}
	return types.NewTuple(vars...)
}

// addEdge records one edge from caller to callee.
func (g *CallGraph) addEdge(caller, callee *CGNode) {
	callee.Callers = append(callee.Callers, caller)
}

// allNamed collects every named type declared in the loaded packages, in
// deterministic order, for CHA interface resolution.
func (g *CallGraph) allNamed(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				out = append(out, named)
			}
		}
	}
	return out
}

// collectInterfaces gathers interface types visible to the project: those
// declared in loaded packages and in every (transitive) import.
func (g *CallGraph) collectInterfaces(pkgs []*Package) {
	seenPkg := map[*types.Package]bool{}
	var fromScope func(p *types.Package)
	fromScope = func(p *types.Package) {
		if p == nil || seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				g.ifaces = append(g.ifaces, iface)
			}
		}
		for _, imp := range p.Imports() {
			fromScope(imp)
		}
	}
	for _, pkg := range pkgs {
		fromScope(pkg.Types)
	}
}

// resolveInterfaceCall adds CHA edges: one per loaded concrete type whose
// method set satisfies the interface and provides the called method.
func (g *CallGraph) resolveInterfaceCall(p pendingDynamic, named []*types.Named) {
	ifaceRecv := funcSig(p.iface).Recv()
	if ifaceRecv == nil {
		return
	}
	iface, ok := ifaceRecv.Type().Underlying().(*types.Interface)
	if !ok {
		// Receiver may be a named interface type.
		if under, uok := ifaceRecv.Type().(*types.Named); uok {
			iface, ok = under.Underlying().(*types.Interface)
		}
		if !ok {
			return
		}
	}
	// Always keep an edge to the interface method itself so the call site
	// is never dangling (its targets may all be external).
	g.addEdge(p.caller, g.NodeOf(p.iface))
	for _, t := range named {
		if types.IsInterface(t) {
			continue
		}
		recv := types.Type(t)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(t)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		sel := types.NewMethodSet(recv).Lookup(p.iface.Pkg(), p.iface.Name())
		if sel == nil {
			continue
		}
		target, ok := sel.Obj().(*types.Func)
		if !ok {
			continue
		}
		g.addEdge(p.caller, g.NodeOf(target))
	}
}

// resolveFuncValueCall adds CHA edges to every value-taken function or
// literal with the call's exact signature.
func (g *CallGraph) resolveFuncValueCall(p pendingDynamic, takenBySig map[string][]*CGNode) {
	key := sigKey(p.sig)
	seen := map[*CGNode]bool{}
	for _, target := range takenBySig[key] {
		if seen[target] {
			continue
		}
		seen[target] = true
		g.addEdge(p.caller, target)
	}
}

// ---- the callgraph analyzer: dead unexported functions ----

// newCallGraphCheck builds the callgraph analyzer. With the whole-program
// graph in hand, an unexported function or method that no edge reaches,
// whose value is never taken, and that satisfies no visible interface is
// provably dead code — the project compiles without it.
func (l *Linter) newCallGraphCheck() *Analyzer {
	a := &Analyzer{
		Name: "callgraph",
		Doc:  "unexported functions must be reachable in the project call graph: called, value-taken, or satisfying a visible interface (dead code otherwise)",
	}
	a.Run = func(*Pass) {}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		g := l.graph
		if g == nil {
			return
		}
		for _, n := range g.Nodes {
			if n.Decl == nil || n.Obj == nil || n.Pkg == nil {
				continue
			}
			name := n.Obj.Name()
			if ast.IsExported(name) || name == "main" || name == "init" || name == "_" {
				continue
			}
			if len(n.Callers) > 0 || len(n.ValueTaken) > 0 {
				continue
			}
			if sig := n.Sig(); sig != nil && sig.Recv() != nil && g.satisfiesVisibleInterface(n.Obj) {
				continue
			}
			fset := l.fset
			report(fset.Position(n.Decl.Name.Pos()),
				"%s is never called, never taken as a value, and satisfies no visible interface; dead code", n.Name())
		}
	}
	return a
}

// satisfiesVisibleInterface reports whether method fn matches a method of
// any interface visible to the project and its receiver type implements
// that interface — such methods are called through dispatch the graph may
// not see (fmt.Stringer, http.Handler, sort.Interface, ...).
func (g *CallGraph) satisfiesVisibleInterface(fn *types.Func) bool {
	sig := funcSig(fn)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	for _, iface := range g.ifaces {
		if m := findIfaceMethod(iface, fn.Name()); m == nil {
			continue
		}
		if types.Implements(recv, iface) {
			return true
		}
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
	}
	return false
}

// findIfaceMethod returns the interface's method with the given name.
func findIfaceMethod(iface *types.Interface, name string) *types.Func {
	for i := 0; i < iface.NumMethods(); i++ {
		if m := iface.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}
