package lint

// lockorder.go is the path-sensitive lock analyzer. Per function it solves
// a forward may-held dataflow problem over the CFG: every sync.Mutex /
// sync.RWMutex acquisition must be released on all normal exit paths, a
// lock may not be re-acquired while held (self-deadlock), and an RLock may
// not be upgraded to Lock. Across functions it accumulates a
// lock-acquisition ordering graph — an edge A→B means some function
// acquires B while holding A — and reports every cycle as a potential
// deadlock, naming the acquisition site of each edge.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// lockKey identifies one mutex within a function: the root variable object
// (receiver, local, or package var) plus the selector path to the mutex
// field ("mu", "idx.mu"); empty field for a bare mutex variable.
type lockKey struct {
	root  types.Object
	field string
}

// heldLock is the per-lock fact: where it was acquired, whether it is a
// read lock, and whether a deferred release is already registered.
type heldLock struct {
	pos      token.Pos
	node     string // graph node name, "" for locals
	rlock    bool
	deferred bool
}

// lockFact is the may-held set. Facts are immutable; transfer copies.
type lockFact map[lockKey]heldLock

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// lockEdge is one ordering-graph edge between project-wide lock nodes.
type lockEdge struct{ from, to string }

// lockEdgeSite pins an edge to source: where the first lock was held and
// where the second was acquired.
type lockEdgeSite struct{ fromPos, toPos token.Position }

// lockEdgeSet is the cross-package acquisition graph. Each edge keeps its
// minimum-position witness site — not the first seen — so the reported
// sites do not depend on the order packages are analyzed in.
type lockEdgeSet struct {
	m map[lockEdge]lockEdgeSite
}

func (s *lockEdgeSet) record(e lockEdge, site lockEdgeSite) {
	old, seen := s.m[e]
	if !seen || lockSiteLess(site, old) {
		s.m[e] = site
	}
}

// lockSiteLess orders sites by (toPos, fromPos) filename/line/column.
func lockSiteLess(a, b lockEdgeSite) bool {
	if c := comparePositions(a.toPos, b.toPos); c != 0 {
		return c < 0
	}
	return comparePositions(a.fromPos, b.fromPos) < 0
}

// comparePositions is a three-way (filename, line, column) comparison.
func comparePositions(a, b token.Position) int {
	if a.Filename != b.Filename {
		if a.Filename < b.Filename {
			return -1
		}
		return 1
	}
	if a.Line != b.Line {
		return a.Line - b.Line
	}
	return a.Column - b.Column
}

// mutexOp is one resolved locking call inside a statement.
type mutexOp struct {
	key    lockKey
	node   string
	method string // Lock, Unlock, RLock, RUnlock
	pos    token.Pos
}

func newLockOrder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "locks must be released on every exit path, never re-acquired while held, and acquired in a consistent global order (cycles are potential deadlocks)",
	}
	edges := &lockEdgeSet{m: map[lockEdge]lockEdgeSite{}}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, body := range funcBodies(f) {
				checkLockOrder(pass, body, edges)
			}
		}
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		reportLockCycles(edges.m, report)
	}
	return a
}

// funcBodies yields every function body in the file in source order:
// FuncDecl bodies and each FuncLit body as its own unit (CFGs do not
// descend into literals). Cross-function state — the lock-acquisition
// graph — canonicalizes its edge sites to the minimum position, so
// results do not depend on this order.
func funcBodies(f *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				bodies = append(bodies, fn.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, fn.Body)
		}
		return true
	})
	return bodies
}

// checkLockOrder runs the may-held analysis over one function body.
func checkLockOrder(pass *Pass, body *ast.BlockStmt, edges *lockEdgeSet) {
	cfg := BuildCFG(body)
	prob := FlowProblem[lockFact]{
		Entry: lockFact{},
		Join:  joinLockFacts,
		Equal: equalLockFacts,
		Transfer: func(b *Block, in lockFact) lockFact {
			return lockTransfer(pass, b, in, nil, nil)
		},
		Edge: func(from *Block, succIdx int, out lockFact) lockFact {
			return lockEdgeRefine(pass, from, succIdx, out)
		},
	}
	in := Solve(cfg, prob)

	// Reporting replay: one pass per reachable block, diagnosing while
	// re-running the transfer from each block's solved IN fact.
	for _, blk := range cfg.Blocks {
		fact, ok := in[blk]
		if !ok || blk == cfg.Exit {
			continue
		}
		lockTransfer(pass, blk, fact, pass.Reportf, edges)
	}
	if exit, ok := in[cfg.Exit]; ok {
		keys := sortedLockKeys(exit)
		for _, k := range keys {
			h := exit[k]
			if h.deferred {
				continue
			}
			pass.Reportf(h.pos, "%s is locked here but may not be released on every return path", lockName(k))
		}
	}
}

// lockTransfer pushes the fact through one block. When reportf is non-nil
// it also diagnoses double-locks/upgrades and records ordering edges —
// that mode runs exactly once per block, after the fixed point.
func lockTransfer(pass *Pass, b *Block, in lockFact, reportf func(token.Pos, string, ...any), edges *lockEdgeSet) lockFact {
	fact := in
	mutated := false
	mutable := func() lockFact {
		if !mutated {
			fact = fact.clone()
			mutated = true
		}
		return fact
	}
	for _, n := range b.Nodes {
		for _, op := range nodeMutexOps(pass, n) {
			switch op.method {
			case "Lock", "RLock":
				if held, ok := fact[op.key]; ok && reportf != nil {
					heldAt := posStr(pass.Fset, held.pos)
					switch {
					case held.rlock && op.method == "Lock":
						reportf(op.pos, "%s is upgraded from RLock (held since %s) to Lock; RWMutex upgrades deadlock", lockName(op.key), heldAt)
					case !held.rlock:
						reportf(op.pos, "%s is locked again while already held (acquired at %s); double %s self-deadlocks", lockName(op.key), heldAt, op.method)
					}
				}
				if reportf != nil && edges != nil && op.node != "" {
					for _, k := range sortedLockKeys(fact) {
						h := fact[k]
						if h.node == "" || h.node == op.node {
							continue
						}
						edges.record(lockEdge{from: h.node, to: op.node}, lockEdgeSite{
							fromPos: pass.Fset.Position(h.pos),
							toPos:   pass.Fset.Position(op.pos),
						})
					}
				}
				m := mutable()
				m[op.key] = heldLock{pos: op.pos, node: op.node, rlock: op.method == "RLock"}
			case "Unlock", "RUnlock":
				if op.deferred(n) {
					if h, ok := fact[op.key]; ok {
						m := mutable()
						h.deferred = true
						m[op.key] = h
					}
				} else if _, ok := fact[op.key]; ok {
					m := mutable()
					delete(m, op.key)
				}
			}
		}
	}
	return fact
}

// deferred reports whether this op sits under the defer statement n (either
// `defer mu.Unlock()` or a deferred closure releasing it).
func (op mutexOp) deferred(n ast.Node) bool {
	_, ok := n.(*ast.DeferStmt)
	return ok
}

// nodeMutexOps extracts the locking calls inside one CFG node in source
// order. Nested function literals are skipped — they run later, not here —
// except under a DeferStmt, whose closure body releases locks at return.
func nodeMutexOps(pass *Pass, n ast.Node) []mutexOp {
	var ops []mutexOp
	skipLits := true
	if _, ok := n.(*ast.DeferStmt); ok {
		skipLits = false
	}
	for _, sub := range ownExprs(n) {
		ast.Inspect(sub, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok && skipLits {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, recv := syncMutexMethod(pass.Info, call)
			switch method {
			case "Lock", "Unlock", "RLock", "RUnlock":
			default:
				return true
			}
			key, node, ok := resolveLockKey(pass.Info, recv)
			if !ok {
				return true
			}
			ops = append(ops, mutexOp{key: key, node: node, method: method, pos: call.Pos()})
			return true
		})
	}
	return ops
}

// lockEdgeRefine is the path-sensitive piece: a branch on x.TryLock() (or
// its negation) holds the lock only on the acquiring edge.
func lockEdgeRefine(pass *Pass, from *Block, succIdx int, out lockFact) lockFact {
	if from.Panic {
		// Abnormal exits do not flow held locks into the exit check.
		return lockFact{}
	}
	if from.Cond == nil {
		return out
	}
	key, node, method, negated, ok := tryLockCond(pass.Info, from.Cond)
	if !ok {
		return out
	}
	acquiringEdge := 0
	if negated {
		acquiringEdge = 1
	}
	if succIdx != acquiringEdge {
		return out
	}
	next := out.clone()
	next[key] = heldLock{pos: from.Cond.Pos(), node: node, rlock: method == "TryRLock"}
	return next
}

// tryLockCond matches `x.TryLock()` / `x.TryRLock()` and `!` thereof.
func tryLockCond(info *types.Info, cond ast.Expr) (key lockKey, node, method string, negated bool, ok bool) {
	cond = ast.Unparen(cond)
	if un, isNot := cond.(*ast.UnaryExpr); isNot && un.Op == token.NOT {
		negated = true
		cond = ast.Unparen(un.X)
	}
	call, isCall := cond.(*ast.CallExpr)
	if !isCall {
		return lockKey{}, "", "", false, false
	}
	m, recv := syncMutexMethod(info, call)
	if m != "TryLock" && m != "TryRLock" {
		return lockKey{}, "", "", false, false
	}
	key, node, ok = resolveLockKey(info, recv)
	return key, node, m, negated, ok
}

func joinLockFacts(a, b lockFact) lockFact {
	out := a.clone()
	for k, bv := range b {
		if av, ok := out[k]; ok {
			av.deferred = av.deferred && bv.deferred
			av.rlock = av.rlock && bv.rlock
			out[k] = av
		} else {
			out[k] = bv
		}
	}
	return out
}

func equalLockFacts(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av != bv {
			return false
		}
	}
	return true
}

func sortedLockKeys(f lockFact) []lockKey {
	keys := make([]lockKey, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].root != keys[j].root {
			return keys[i].root.Pos() < keys[j].root.Pos()
		}
		return keys[i].field < keys[j].field
	})
	return keys
}

// syncMutexMethod returns the method name and receiver expression when call
// invokes a locking method of sync.Mutex or sync.RWMutex.
func syncMutexMethod(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	obj := calleeObject(info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", nil
	}
	switch obj.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return obj.Name(), sel.X
	}
	return "", nil
}

// resolveLockKey maps a mutex receiver expression to its identity and, when
// the mutex is a field of a named type or a package-level variable, the
// project-wide graph node name ("server.Metrics.mu", "chaos.faultMu").
func resolveLockKey(info *types.Info, e ast.Expr) (lockKey, string, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			return lockKey{}, "", false
		}
		return lockKey{root: obj}, globalNode(obj), true
	case *ast.SelectorExpr:
		var path []string
		cur := x
		for {
			path = append([]string{cur.Sel.Name}, path...)
			inner := ast.Unparen(cur.X)
			switch base := inner.(type) {
			case *ast.Ident:
				obj := info.Uses[base]
				if obj == nil {
					return lockKey{}, "", false
				}
				if _, isPkg := obj.(*types.PkgName); isPkg {
					// pkg.muVar(.field...): the first selector is the root var.
					vobj := info.Uses[cur.Sel]
					if vobj == nil {
						return lockKey{}, "", false
					}
					key := lockKey{root: vobj, field: strings.Join(path[1:], ".")}
					if key.field == "" {
						return key, globalNode(vobj), true
					}
					return key, typeFieldNode(info, x), true
				}
				key := lockKey{root: obj, field: strings.Join(path, ".")}
				return key, typeFieldNode(info, x), true
			case *ast.SelectorExpr:
				cur = base
			default:
				return lockKey{}, "", false
			}
		}
	}
	return lockKey{}, "", false
}

// globalNode names a package-level mutex variable, or "" for locals.
func globalNode(obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	return v.Pkg().Name() + "." + v.Name()
}

// typeFieldNode names a mutex that is a field of a named struct type,
// merging all instances of the type into one graph node.
func typeFieldNode(info *types.Info, sel *ast.SelectorExpr) string {
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	named := derefNamed(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

func lockName(k lockKey) string {
	if k.field == "" {
		return k.root.Name()
	}
	return k.root.Name() + "." + k.field
}

func posStr(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func posBase(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// reportLockCycles finds every cycle in the acquisition graph and reports
// each once, naming both (all) acquisition sites involved.
func reportLockCycles(edges map[lockEdge]lockEdgeSite, report func(pos token.Position, format string, args ...any)) {
	adj := map[string][]string{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for n := range adj {
		sort.Strings(adj[n])
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	reported := map[string]bool{}
	// DFS from each node looking for a cycle back to it; canonicalizing on
	// the smallest node keeps each cycle reported exactly once.
	var path []string
	onPath := map[string]bool{}
	var dfs func(start, cur string)
	dfs = func(start, cur string) {
		for _, next := range adj[cur] {
			if next == start {
				cycle := append(append([]string{}, path...), cur)
				min := 0
				for i, n := range cycle {
					if n < cycle[min] {
						min = i
					}
				}
				if cycle[min] != start {
					continue // reported when DFS starts from the minimum
				}
				key := strings.Join(cycle, "→")
				if reported[key] {
					continue
				}
				reported[key] = true
				reportCycle(cycle, edges, report)
				continue
			}
			if onPath[next] || next < start {
				continue
			}
			path = append(path, cur)
			onPath[next] = true
			dfs(start, next)
			onPath[next] = false
			path = path[:len(path)-1]
		}
	}
	for _, n := range nodes {
		onPath[n] = true
		dfs(n, n)
		onPath[n] = false
	}
}

// reportCycle renders one cycle n0→n1→…→n0 with each edge's acquisition
// site, anchored at the site closing the cycle.
func reportCycle(cycle []string, edges map[lockEdge]lockEdgeSite, report func(pos token.Position, format string, args ...any)) {
	if len(cycle) == 2 {
		ab := edges[lockEdge{from: cycle[0], to: cycle[1]}]
		ba := edges[lockEdge{from: cycle[1], to: cycle[0]}]
		report(ba.toPos,
			"potential deadlock: %s is acquired before %s at %s, but %s is acquired before %s at %s",
			cycle[0], cycle[1], posBase(ab.toPos), cycle[1], cycle[0], posBase(ba.toPos))
		return
	}
	var parts []string
	for i := range cycle {
		next := cycle[(i+1)%len(cycle)]
		site := edges[lockEdge{from: cycle[i], to: next}]
		parts = append(parts, fmt.Sprintf("%s before %s (%s)", cycle[i], next, posBase(site.toPos)))
	}
	last := edges[lockEdge{from: cycle[len(cycle)-1], to: cycle[0]}]
	report(last.toPos, "potential deadlock: lock order cycle: %s", strings.Join(parts, ", "))
}
