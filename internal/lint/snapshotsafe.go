package lint

// snapshotsafe.go proves the snapshot-immutability discipline the server's
// concurrency model rests on: a snapshot (core.IGDB and everything
// reachable from it — reldb tables, the KD-tree, the path network) is
// built, published once through an atomic pointer swap, and never written
// again; readers share it without locks. The analyzer turns that comment
// into a checked invariant.
//
// # Annotation grammar
//
//   - `// snapshot: immutable after publish` on a type declaration marks a
//     root. The reachable set R* is every named type reachable from a root
//     through struct fields, pointers, slices, arrays, and maps (stopping
//     at sync/sync-atomic types and at annotated fields), plus every
//     carrier: a struct with a field of an R* type (e.g. the server's
//     snapshot wrapper, simulate's Engine).
//   - `// snapshot: internally synchronized` on a struct field stops the
//     traversal there and exempts writes through that field — for state
//     with its own locking (LRU caches, sync.Once-guarded artifacts,
//     tracing spans).
//   - `// mutates: pre-publish only` on a function declares intentional
//     construction-time mutation. Calling it with published snapshot state
//     is a finding; a function that mutates snapshot-reachable state
//     through a parameter or receiver without the annotation is a finding.
//   - `//lint:ignore snapshotsafe <reason>` suppresses a finding.
//
// # Publish model
//
// A publish point is a Store/Swap/CompareAndSwap on an atomic.Pointer[T]
// with T in R*. Values become "published taint": the stored value after
// the store, the result of Load on such a pointer, the result of an
// accessor (a function that loads and returns snapshot state, like the
// server's current()), and any captured R* variable inside a go-spawned
// literal (shared with another goroutine — simulate's workers). Taint
// propagates through assignments intraprocedurally and through call edges
// (including CHA-resolved interface and function-value calls)
// interprocedurally. Any store, append, map write, copy, or delete whose
// base is tainted is reported naming both the write site and the publish
// point.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// snapAnnotations is the per-run annotation harvest, filled by the
// per-package passes.
type snapAnnotations struct {
	roots  []*types.TypeName
	stops  map[*types.Var]bool
	preMut map[*types.Func]bool
}

const (
	markerRoot   = "snapshot: immutable after publish"
	markerSynced = "snapshot: internally synchronized"
	markerPreMut = "mutates: pre-publish only"
)

func (l *Linter) newSnapshotSafe() *Analyzer {
	ann := &snapAnnotations{stops: map[*types.Var]bool{}, preMut: map[*types.Func]bool{}}
	a := &Analyzer{
		Name: "snapshotsafe",
		Doc:  "state reachable from a '// snapshot: immutable after publish' root must not be written after its atomic-pointer publish, interprocedurally",
	}
	a.Run = func(pass *Pass) { ann.collect(pass) }
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		if l.graph == nil {
			return
		}
		s := newSnapChecker(l.graph, l.fset, ann)
		s.check(report)
	}
	return a
}

// commentHas reports whether any line of the comment groups carries the
// marker.
func commentHas(marker string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if strings.Contains(c.Text, marker) {
				return true
			}
		}
	}
	return false
}

// collect harvests the three annotation kinds from one package.
func (ann *snapAnnotations) collect(pass *Pass) {
	var roots []*types.TypeName
	stops := map[*types.Var]bool{}
	preMut := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if commentHas(markerPreMut, d.Doc) {
					if fn, ok := pass.Info.Defs[d.Name].(*types.Func); ok {
						preMut[fn] = true
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if commentHas(markerRoot, d.Doc, ts.Doc, ts.Comment) {
						if tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName); ok {
							roots = append(roots, tn)
						}
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !commentHas(markerSynced, field.Doc, field.Comment) {
							continue
						}
						for _, name := range field.Names {
							if v, ok := pass.Info.Defs[name].(*types.Var); ok {
								stops[v] = true
							}
						}
					}
				}
			}
		}
	}
	if len(roots) == 0 && len(stops) == 0 && len(preMut) == 0 {
		return
	}
	ann.roots = append(ann.roots, roots...)
	for v := range stops {
		ann.stops[v] = true
	}
	for f := range preMut {
		ann.preMut[f] = true
	}
}

// taint records that a value is published: writes through it strictly
// after `after` (NoPos: everywhere) violate immutability, witnessed by the
// publish point named in witness.
type taint struct {
	after   token.Pos
	witness string
}

type snapChecker struct {
	g    *CallGraph
	fset *token.FileSet
	ann  *snapAnnotations

	// rstar is the reachable set: types whose values belong to a snapshot.
	rstar map[*types.TypeName]bool
	// pubPtr maps an atomic.Pointer field/var object to its minimum Store
	// position (the canonical publish point named in findings).
	pubPtr map[types.Object]token.Pos
	// anyStore is the minimum publish position overall, the witness when a
	// pointer identity cannot be resolved.
	anyStore token.Position

	accessors  map[*CGNode]string // node -> publish witness of the pointer it loads
	masks      map[*CGNode]uint64
	maskTaint  map[*CGNode]taint
	inherited  map[*CGNode]map[types.Object]taint
	annotated  map[*CGNode]bool
	changed    bool
	findingSet map[string]bool
	findings   []snapFinding

	// missing collects rule-C candidates: unannotated mutators.
	missing map[*CGNode]missingAnn
}

type snapFinding struct {
	pos token.Position
	msg string
}

type missingAnn struct {
	pos   token.Pos
	param string
}

func newSnapChecker(g *CallGraph, fset *token.FileSet, ann *snapAnnotations) *snapChecker {
	return &snapChecker{
		g: g, fset: fset, ann: ann,
		rstar:      map[*types.TypeName]bool{},
		pubPtr:     map[types.Object]token.Pos{},
		accessors:  map[*CGNode]string{},
		masks:      map[*CGNode]uint64{},
		maskTaint:  map[*CGNode]taint{},
		inherited:  map[*CGNode]map[types.Object]taint{},
		annotated:  map[*CGNode]bool{},
		findingSet: map[string]bool{},
		missing:    map[*CGNode]missingAnn{},
	}
}

func (s *snapChecker) check(report func(pos token.Position, format string, args ...any)) {
	if len(s.ann.roots) == 0 {
		return
	}
	s.buildRstar()
	for _, n := range s.g.Nodes {
		if n.Obj != nil && s.ann.preMut[n.Obj] {
			s.annotated[n] = true
		}
	}
	s.findPublishSites()
	s.findAccessors()

	// Interprocedural fixpoint: masks and capture-inherited taints only
	// grow, so iteration converges; nodes are visited in deterministic
	// graph order so witnesses are stable.
	for round := 0; round < 30; round++ {
		s.changed = false
		for _, n := range s.g.Nodes {
			if n.Body() != nil {
				s.analyzeNode(n)
			}
		}
		if !s.changed {
			break
		}
	}

	for _, n := range s.g.Nodes {
		m, ok := s.missing[n]
		if !ok {
			continue
		}
		s.addFinding(m.pos, fmt.Sprintf(
			"%s mutates snapshot-reachable state through %s without the '// %s' annotation; add it if this only runs during construction",
			n.Name(), m.param, markerPreMut))
	}

	sort.Slice(s.findings, func(i, j int) bool {
		if c := comparePositions(s.findings[i].pos, s.findings[j].pos); c != 0 {
			return c < 0
		}
		return s.findings[i].msg < s.findings[j].msg
	})
	for _, f := range s.findings {
		report(f.pos, "%s", f.msg)
	}
}

func (s *snapChecker) addFinding(pos token.Pos, msg string) {
	p := s.fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%d|%s", p.Filename, p.Line, p.Column, msg)
	if s.findingSet[key] {
		return
	}
	s.findingSet[key] = true
	s.findings = append(s.findings, snapFinding{pos: p, msg: msg})
}

// ---- reachable set ----

// syncPkg reports whether the named type lives in sync or sync/atomic —
// synchronization primitives end the traversal.
func syncPkg(tn *types.TypeName) bool {
	if tn.Pkg() == nil {
		return false
	}
	p := tn.Pkg().Path()
	return p == "sync" || p == "sync/atomic"
}

// buildRstar computes the downward closure of the annotated roots, then
// adds publish wrappers: a type T wrapped in an atomic.Pointer[T] whose
// own closure reaches R* (the server's snapshot struct wrapping the IGDB)
// joins with its full closure, because everything inside the wrapper is
// shared once the pointer is stored. Wrappers are the only way types
// outside the root closure join R* — a struct that merely holds an R*
// field (a builder, a test env, a renderer) is not snapshot state.
func (s *snapChecker) buildRstar() {
	seen := map[types.Type]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch x := t.(type) {
		case *types.Named:
			tn := x.Origin().Obj()
			if syncPkg(tn) {
				return
			}
			if !s.rstar[tn] {
				s.rstar[tn] = true
			}
			reach(x.Underlying())
		case *types.Pointer:
			reach(x.Elem())
		case *types.Slice:
			reach(x.Elem())
		case *types.Array:
			reach(x.Elem())
		case *types.Map:
			reach(x.Key())
			reach(x.Elem())
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				f := x.Field(i)
				if s.ann.stops[f] {
					continue
				}
				reach(f.Type())
			}
		}
	}
	for _, root := range s.ann.roots {
		reach(root.Type())
	}

	// Publish-wrapper closure: atomic.Pointer[T] struct fields anywhere in
	// the loaded packages. Repeated until stable so a wrapper-of-wrapper
	// chain resolves.
	named := s.g.allNamed(loadedPackages(s.g))
	for {
		grew := false
		for _, nt := range named {
			st, ok := nt.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				elem := atomicPointerElem(st.Field(i).Type())
				if elem == nil {
					continue
				}
				tn := elem.Origin().Obj()
				if s.rstar[tn] || !s.closureReachesRstar(elem) {
					continue
				}
				reach(elem)
				grew = true
			}
		}
		if !grew {
			break
		}
	}
}

// atomicPointerElem returns the named element type of an atomic.Pointer[T]
// field type, or nil.
func atomicPointerElem(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || !syncPkg(named.Obj()) || named.Obj().Name() != "Pointer" {
		return nil
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	elem, _ := args.At(0).(*types.Named)
	return elem
}

// closureReachesRstar reports whether t's downward closure (minus stop
// fields) contains a type already in R*.
func (s *snapChecker) closureReachesRstar(t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch x := t.(type) {
		case *types.Named:
			tn := x.Origin().Obj()
			if syncPkg(tn) {
				return false
			}
			if s.rstar[tn] {
				return true
			}
			return walk(x.Underlying())
		case *types.Pointer:
			return walk(x.Elem())
		case *types.Slice:
			return walk(x.Elem())
		case *types.Array:
			return walk(x.Elem())
		case *types.Map:
			return walk(x.Key()) || walk(x.Elem())
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				f := x.Field(i)
				if s.ann.stops[f] {
					continue
				}
				if walk(f.Type()) {
					return true
				}
			}
		}
		return false
	}
	return walk(t)
}

// loadedPackages recovers the distinct loaded packages from graph nodes.
func loadedPackages(g *CallGraph) []*Package {
	var out []*Package
	seen := map[*Package]bool{}
	for _, n := range g.Nodes {
		if n.Pkg != nil && !seen[n.Pkg] {
			seen[n.Pkg] = true
			out = append(out, n.Pkg)
		}
	}
	return out
}

// typeInRstar reports whether t, unwrapped through pointers, slices,
// arrays, and maps, is a named type in R*.
func (s *snapChecker) typeInRstar(t types.Type) bool {
	for {
		switch x := t.(type) {
		case *types.Named:
			return s.rstar[x.Origin().Obj()]
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Map:
			if s.typeInRstar(x.Key()) {
				return true
			}
			t = x.Elem()
		default:
			return false
		}
	}
}

// ---- publish sites and accessors ----

// atomicPointerCall matches a method call on atomic.Pointer[T]; returns
// the element type and the method name.
func atomicPointerCall(info *types.Info, call *ast.CallExpr) (elem types.Type, recv ast.Expr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, "", false
	}
	selection, found := info.Selections[sel]
	if !found || selection.Kind() != types.MethodVal {
		return nil, nil, "", false
	}
	named := derefNamed(selection.Recv())
	if named == nil {
		return nil, nil, "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
		return nil, nil, "", false
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil, nil, "", false
	}
	return args.At(0), sel.X, sel.Sel.Name, true
}

// ptrIdentity resolves the variable or field object the pointer expression
// names, or nil.
func ptrIdentity(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return ptrIdentity(info, x.X)
		}
	case *ast.StarExpr:
		return ptrIdentity(info, x.X)
	}
	return nil
}

// findPublishSites records every Store/Swap/CompareAndSwap on an
// atomic.Pointer whose element is snapshot state, keyed by pointer
// identity with minimum-position canonicalization.
func (s *snapChecker) findPublishSites() {
	var minAny token.Position
	for _, n := range s.g.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			elem, recv, method, ok := atomicPointerCall(info, call)
			if !ok || !s.typeInRstar(elem) {
				return true
			}
			if method != "Store" && method != "Swap" && method != "CompareAndSwap" {
				return true
			}
			pos := call.Pos()
			if id := ptrIdentity(info, recv); id != nil {
				if old, seen := s.pubPtr[id]; !seen || comparePositions(s.fset.Position(pos), s.fset.Position(old)) < 0 {
					s.pubPtr[id] = pos
				}
			}
			p := s.fset.Position(pos)
			if minAny.Filename == "" || comparePositions(p, minAny) < 0 {
				minAny = p
			}
			return true
		})
	}
	s.anyStore = minAny
}

// ptrWitness names the publish point for a pointer identity.
func (s *snapChecker) ptrWitness(id types.Object) string {
	if id != nil {
		if pos, ok := s.pubPtr[id]; ok {
			return "publish point " + posBase(s.fset.Position(pos))
		}
	}
	if s.anyStore.Filename != "" {
		return "publish point " + posBase(s.anyStore)
	}
	return "atomic-pointer publish"
}

// findAccessors marks functions that return snapshot state obtained from a
// publish pointer (directly via Load, or by calling another accessor), so
// their results carry published taint at every call site.
func (s *snapChecker) findAccessors() {
	returnsRstar := func(n *CGNode) bool {
		sig := n.Sig()
		if sig == nil {
			return false
		}
		res := sig.Results()
		for i := 0; i < res.Len(); i++ {
			if s.typeInRstar(res.At(i).Type()) {
				return true
			}
		}
		return false
	}
	for _, n := range s.g.Nodes {
		body := n.Body()
		if body == nil || !returnsRstar(n) {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			elem, recv, method, ok := atomicPointerCall(info, call)
			if !ok || method != "Load" || !s.typeInRstar(elem) {
				return true
			}
			if _, already := s.accessors[n]; !already {
				s.accessors[n] = s.ptrWitness(ptrIdentity(info, recv))
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, n := range s.g.Nodes {
			if _, ok := s.accessors[n]; ok || n.Body() == nil || !returnsRstar(n) {
				continue
			}
			for _, e := range n.Out {
				if e.Kind != CallStatic || e.Call == nil {
					continue
				}
				if w, ok := s.accessors[e.Callee]; ok {
					s.accessors[n] = w
					changed = true
					break
				}
			}
		}
	}
}

// ---- per-function analysis ----

// sigObjects returns the receiver (if any) followed by the parameters.
func sigObjects(sig *types.Signature) []*types.Var {
	if sig == nil {
		return nil
	}
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// pointerLike reports whether assigning a value of type t aliases the
// source (writes through the copy are visible to the original).
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface, *types.Chan:
		return true
	}
	return false
}

func (s *snapChecker) analyzeNode(n *CGNode) {
	info := n.Pkg.Info
	body := n.Body()
	ownLit := n.Lit

	tainted := map[types.Object]taint{}
	for obj, t := range s.inherited[n] {
		tainted[obj] = t
	}
	if mask := s.masks[n]; mask != 0 {
		objs := sigObjects(n.Sig())
		mt := s.maskTaint[n]
		for i, obj := range objs {
			if i < 64 && mask&(1<<uint(i)) != 0 {
				if _, ok := tainted[obj]; !ok {
					tainted[obj] = mt
				}
			}
		}
	}
	// A go-spawned literal shares every captured snapshot value with its
	// spawner: treat those captures as published within the goroutine.
	if n.GoSpawned() {
		spawnPos := s.fset.Position(ownLit.Pos())
		ast.Inspect(body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			v, isVar := obj.(*types.Var)
			if !isVar || v.IsField() {
				return true
			}
			if !(v.Pos() < ownLit.Pos() || v.Pos() > ownLit.End()) {
				return true // declared inside the literal
			}
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return true // package-level; not goroutine-capture sharing
			}
			if !s.typeInRstar(v.Type()) {
				return true
			}
			if _, ok := tainted[v]; !ok {
				tainted[v] = taint{witness: "shared with the goroutine spawned at " + posBase(spawnPos)}
			}
			return true
		})
	}

	// Post-store taint: the stored value is published from the Store on.
	s.walk(body, ownLit, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		elem, _, method, ok := atomicPointerCall(info, call)
		if !ok || !s.typeInRstar(elem) {
			return
		}
		if method != "Store" && method != "Swap" && method != "CompareAndSwap" {
			return
		}
		valArg := call.Args[0]
		if method == "CompareAndSwap" && len(call.Args) > 1 {
			valArg = call.Args[1]
		}
		base := chainBase(info, valArg)
		if base == nil {
			return
		}
		// The witness is this store itself: a write below it is after
		// *this* publish, whatever other stores the pointer has.
		w := "publish point " + posBase(s.fset.Position(call.Pos()))
		if old, ok := tainted[base]; !ok || (old.after != token.NoPos && call.End() < old.after) {
			tainted[base] = taint{after: call.End(), witness: w}
		}
	})

	// Intraprocedural propagation to a (bounded) fixpoint.
	for i := 0; i < 4; i++ {
		if !s.propagate(n, body, ownLit, tainted) {
			break
		}
	}

	s.checkWrites(n, body, ownLit, tainted)
	s.propagateCalls(n, tainted)

	// Literals see the enclosing function's variables; hand the taint down.
	for _, e := range n.Out {
		if e.Kind != CallEnclosing || e.Callee == nil {
			continue
		}
		child := e.Callee
		inh := s.inherited[child]
		for obj, t := range tainted {
			if _, ok := inh[obj]; !ok {
				if inh == nil {
					inh = map[types.Object]taint{}
					s.inherited[child] = inh
				}
				inh[obj] = t
				s.changed = true
			}
		}
	}
}

// walk traverses body without descending into nested function literals
// (they are their own graph nodes); ownLit is the literal whose body this
// is, nil for declarations.
func (s *snapChecker) walk(body *ast.BlockStmt, ownLit *ast.FuncLit, fn func(ast.Node)) {
	ast.Inspect(body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != ownLit {
			return false
		}
		if node != nil {
			fn(node)
		}
		return true
	})
}

// exprTaint computes the published taint of an expression, if any.
func (s *snapChecker) exprTaint(info *types.Info, tainted map[types.Object]taint, e ast.Expr) (taint, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			t, ok := tainted[obj]
			return t, ok
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[x.Sel].(*types.Var); ok && s.ann.stops[f] {
			return taint{}, false // internally-synchronized field: traversal stops
		}
		return s.exprTaint(info, tainted, x.X)
	case *ast.IndexExpr:
		return s.exprTaint(info, tainted, x.X)
	case *ast.IndexListExpr:
		return s.exprTaint(info, tainted, x.X)
	case *ast.StarExpr:
		return s.exprTaint(info, tainted, x.X)
	case *ast.SliceExpr:
		return s.exprTaint(info, tainted, x.X)
	case *ast.TypeAssertExpr:
		return s.exprTaint(info, tainted, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND || x.Op == token.MUL {
			return s.exprTaint(info, tainted, x.X)
		}
	case *ast.CallExpr:
		if elem, recv, method, ok := atomicPointerCall(info, x); ok && method == "Load" && s.typeInRstar(elem) {
			return taint{witness: s.ptrWitness(ptrIdentity(info, recv))}, true
		}
		if n := s.staticCallee(info, x); n != nil {
			if w, ok := s.accessors[n]; ok {
				return taint{witness: w}, true
			}
		}
	}
	return taint{}, false
}

// staticCallee resolves a call's single static target node, if any.
func (s *snapChecker) staticCallee(info *types.Info, call *ast.CallExpr) *CGNode {
	if fn, ok := calleeObject(info, call).(*types.Func); ok {
		if n, ok := s.g.funcs[fn.Origin()]; ok {
			return n
		}
	}
	return nil
}

// propagate runs one round of flow-insensitive taint propagation through
// assignments, declarations, and range statements; reports whether the
// taint set grew.
func (s *snapChecker) propagate(n *CGNode, body *ast.BlockStmt, ownLit *ast.FuncLit, tainted map[types.Object]taint) bool {
	info := n.Pkg.Info
	grew := false
	setObj := func(id *ast.Ident, t taint) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !pointerLike(obj.Type()) {
			return
		}
		if _, ok := tainted[obj]; !ok {
			tainted[obj] = t
			grew = true
		}
	}
	s.walk(body, ownLit, func(node ast.Node) {
		switch x := node.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					if t, ok := s.exprTaint(info, tainted, x.Rhs[i]); ok {
						setObj(id, taint{witness: t.witness})
					}
				}
			} else if len(x.Rhs) == 1 {
				if t, ok := s.exprTaint(info, tainted, x.Rhs[0]); ok {
					for _, lhs := range x.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							setObj(id, taint{witness: t.witness})
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) {
					if t, ok := s.exprTaint(info, tainted, x.Values[i]); ok {
						setObj(name, taint{witness: t.witness})
					}
				} else if len(x.Values) == 1 {
					if t, ok := s.exprTaint(info, tainted, x.Values[0]); ok {
						setObj(name, taint{witness: t.witness})
					}
				}
			}
		case *ast.RangeStmt:
			if t, ok := s.exprTaint(info, tainted, x.X); ok {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e == nil {
						continue
					}
					if id, ok := ast.Unparen(e).(*ast.Ident); ok {
						setObj(id, taint{witness: t.witness})
					}
				}
			}
		}
	})
	return grew
}

// chainBase unwraps selector/index/star chains to the base identifier's
// object, or nil. It refuses chains crossing an internally-synchronized
// field — writes there are exempt.
func chainBase(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// chainCrossesStop reports whether any selector in the chain names an
// internally-synchronized field.
func (s *snapChecker) chainCrossesStop(info *types.Info, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if f, ok := info.Uses[x.Sel].(*types.Var); ok && s.ann.stops[f] {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return false
		}
	}
}

// checkWrites reports rule A (write after publish) and collects rule C
// (missing annotation) for one node.
func (s *snapChecker) checkWrites(n *CGNode, body *ast.BlockStmt, ownLit *ast.FuncLit, tainted map[types.Object]taint) {
	info := n.Pkg.Info
	sigObjs := map[types.Object]string{}
	if n.Decl != nil && !s.annotated[n] {
		for _, v := range sigObjects(n.Sig()) {
			if s.typeInRstar(v.Type()) && pointerLike(v.Type()) {
				sigObjs[v] = v.Name()
			}
		}
	}
	checkTarget := func(pos token.Pos, target ast.Expr, verb string) {
		if _, isIdent := ast.Unparen(target).(*ast.Ident); isIdent && verb == "write" {
			return // rebinding a variable, not a mutation
		}
		if s.chainCrossesStop(info, target) {
			return
		}
		base := chainBase(info, target)
		if base == nil {
			return
		}
		if t, ok := tainted[base]; ok && (t.after == token.NoPos || pos > t.after) {
			s.addFinding(pos, fmt.Sprintf(
				"%s to %s after the snapshot is published (%s); snapshot state is immutable after publish",
				verb, types.ExprString(target), t.witness))
			// An earlier fixpoint round may have recorded this same write as
			// missing an annotation before the taint reached it; the rule-A
			// finding supersedes that.
			if m, seen := s.missing[n]; seen && m.pos == pos {
				delete(s.missing, n)
			}
			return
		}
		if name, ok := sigObjs[base]; ok {
			if m, seen := s.missing[n]; !seen || pos < m.pos {
				s.missing[n] = missingAnn{pos: pos, param: name}
			}
		}
	}
	s.walk(body, ownLit, func(node ast.Node) {
		switch x := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkTarget(lhs.Pos(), lhs, "write")
			}
			for _, rhs := range x.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					// x = append(x, ...) is already reported as the write to
					// x; a second append finding would double-count it.
					if selfAppend(info, x, call) {
						continue
					}
					s.checkBuiltinMutator(n, info, call, tainted, checkTarget)
				}
			}
		case *ast.IncDecStmt:
			checkTarget(x.X.Pos(), x.X, "write")
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				s.checkBuiltinMutator(n, info, call, tainted, checkTarget)
			}
		}
	})
}

// selfAppend reports whether call is append() whose destination is also a
// left-hand side of the assignment — the canonical x = append(x, ...)
// growth idiom, covered by the assignment's own write check.
func selfAppend(info *types.Info, as *ast.AssignStmt, call *ast.CallExpr) bool {
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if obj, ok := info.Uses[fn].(*types.Builtin); !ok || obj.Name() != "append" {
		return false
	}
	dst := types.ExprString(call.Args[0])
	for _, lhs := range as.Lhs {
		if types.ExprString(lhs) == dst {
			return true
		}
	}
	return false
}

// checkBuiltinMutator flags append/copy/delete applied to published state
// and sort.* over published slices — mutations that do not go through an
// assignment's left-hand side.
func (s *snapChecker) checkBuiltinMutator(n *CGNode, info *types.Info, call *ast.CallExpr, tainted map[types.Object]taint, checkTarget func(token.Pos, ast.Expr, string)) {
	if len(call.Args) == 0 {
		return
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fn].(*types.Builtin); ok {
			switch obj.Name() {
			case "append", "copy", "delete":
				checkTarget(call.Args[0].Pos(), call.Args[0], obj.Name())
			}
		}
	case *ast.SelectorExpr:
		obj := calleeObject(info, call)
		if isPkgFunc(obj, "sort", "Slice", "SliceStable", "Sort", "Stable") {
			if t, ok := s.exprTaint(info, tainted, call.Args[0]); ok {
				s.addFinding(call.Pos(), fmt.Sprintf(
					"sort of %s after the snapshot is published (%s); snapshot state is immutable after publish",
					types.ExprString(call.Args[0]), t.witness))
			}
		}
	}
}

// propagateCalls pushes published arguments through call edges: a callee
// annotated pre-publish-only is reported at the call site; an unannotated
// in-project callee inherits the taint on the matching parameter and is
// re-analyzed.
func (s *snapChecker) propagateCalls(n *CGNode, tainted map[types.Object]taint) {
	info := n.Pkg.Info
	for _, e := range n.Out {
		if e.Kind == CallEnclosing || e.Call == nil || e.Callee == nil {
			continue
		}
		callee := e.Callee
		if callee.Body() == nil && !s.annotated[callee] {
			continue // external; cannot analyze
		}
		sig := callee.Sig()
		objs := sigObjects(sig)
		if len(objs) == 0 {
			continue
		}
		var mask uint64
		var witness string
		setBit := func(i int, t taint) {
			if i >= 0 && i < len(objs) && i < 64 {
				mask |= 1 << uint(i)
				if witness == "" {
					witness = t.witness
				}
			}
		}
		published := func(t taint, ok bool) bool {
			// Position-qualified taint (value stored then used) counts only
			// for call sites after the store.
			return ok && (t.after == token.NoPos || e.Call.Pos() > t.after)
		}
		argOffset := 0
		if sig != nil && sig.Recv() != nil {
			argOffset = 1
			if sel, ok := ast.Unparen(e.Call.Fun).(*ast.SelectorExpr); ok {
				if t, ok := s.exprTaint(info, tainted, sel.X); published(t, ok) {
					setBit(0, t)
				}
			}
		}
		for i, arg := range e.Call.Args {
			t, ok := s.exprTaint(info, tainted, arg)
			if !published(t, ok) {
				continue
			}
			idx := i + argOffset
			if idx >= len(objs) {
				idx = len(objs) - 1 // variadic tail
			}
			setBit(idx, t)
		}
		if mask == 0 {
			continue
		}
		if s.annotated[callee] {
			s.addFinding(e.Call.Pos(), fmt.Sprintf(
				"call passes published snapshot state to %s, which is annotated '// %s' (%s)",
				callee.Name(), markerPreMut, witness))
			continue
		}
		if s.masks[callee]&mask != mask {
			s.masks[callee] |= mask
			if _, ok := s.maskTaint[callee]; !ok {
				s.maskTaint[callee] = taint{witness: witness}
			}
			s.changed = true
		}
	}
}
