package lint

// cfg.go builds intraprocedural control-flow graphs over go/ast function
// bodies — the foundation the path-sensitive analyzers (lockorder,
// guardedby) solve dataflow problems on. Pure syntax: the
// builder needs no type information, handles if/for/range/switch/
// typeswitch/select/goto/labeled break+continue/defer/fallthrough, and
// treats panic(...) and os.Exit-style calls as terminators.

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal straight-line run of AST nodes.
// Nodes holds statements and, for branching blocks, the condition
// expression as its last entry. A block ending in a two-way branch sets
// Cond, and by convention Succs[0] is the true edge and Succs[1] the false
// edge; multi-way blocks (switch heads, select heads, range heads) leave
// Cond nil and fan out in source order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	// Cond is the branch condition when this block ends in a conditional
	// jump (if, for-with-cond). Succs[0] is then the true edge, Succs[1]
	// the false edge.
	Cond ast.Expr
	// Panic marks a block terminated by panic(...) or a known no-return
	// call (os.Exit, log.Fatal*). Its edge to Exit is an abnormal exit:
	// resource- and lock-lifetime checks skip it.
	Panic bool
}

// CFG is one function body's control-flow graph. Blocks[0] is Entry; Exit
// is a synthetic empty block every return (and the implicit fallthrough at
// the end of the body) jumps to.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// BuildCFG constructs the CFG of one function body. The body may be a
// FuncDecl's or a FuncLit's; nested function literals are NOT descended
// into — each is analyzed as its own function by callers that care.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*Block{},
		gotos:  map[string][]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit) // implicit return at end of body
	}
	return b.cfg
}

// loopCtx is one enclosing breakable/continuable construct.
type loopCtx struct {
	label string
	brk   *Block // break target (nil for none)
	cont  *Block // continue target (nil for switch/select)
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block // nil right after a terminator; add() revives a dead block

	loops    []loopCtx
	labels   map[string]*Block   // resolved label -> target block
	gotos    map[string][]*Block // pending goto sources by label
	fallNext *Block              // next case body, target of fallthrough

	// pendingLabel is set by a LabeledStmt so the loop/switch/select it
	// labels can register labeled break/continue targets.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block, starting a fresh (unreachable)
// block when the previous one ended in a terminator.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// startBlock begins a new block reached by fallthrough from cur (when cur
// is live) and makes it current.
func (b *cfgBuilder) startBlock() *Block {
	blk := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the label a LabeledStmt attached for the construct
// being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findLoop resolves a break/continue target. wantCont selects constructs
// with a continue target (loops only).
func (b *cfgBuilder) findLoop(label string, wantCont bool) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := b.loops[i]
		if label != "" && lc.label != label {
			continue
		}
		if wantCont {
			if lc.cont != nil {
				return lc.cont
			}
			if label != "" {
				return nil
			}
			continue
		}
		return lc.brk
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		lbl := b.startBlock()
		b.labels[s.Label.Name] = lbl
		for _, src := range b.gotos[s.Label.Name] {
			b.edge(src, lbl)
		}
		delete(b.gotos, s.Label.Name)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		if b.cur != nil {
			b.cur.Cond = s.Cond
		}
		cond := b.cur
		then := b.newBlock()
		if cond != nil {
			b.edge(cond, then) // true edge first
		}
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *Block
		hasElse := s.Else != nil
		if hasElse {
			els := b.newBlock()
			if cond != nil {
				b.edge(cond, els)
			}
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		after := b.newBlock()
		if !hasElse && cond != nil {
			b.edge(cond, after) // false edge
		}
		if thenEnd != nil {
			b.edge(thenEnd, after)
		}
		if elseEnd != nil {
			b.edge(elseEnd, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
		}
		body := b.newBlock()
		b.edge(head, body) // true edge (or the only edge for for {...})
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after) // false edge
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			cont = post
		}
		b.loops = append(b.loops, loopCtx{label: label, brk: after, cont: cont})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.startBlock()
		head.Nodes = append(head.Nodes, s) // range clause: one iteration step
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.loops = append(b.loops, loopCtx{label: label, brk: after, cont: head})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, s.Tag, nil, s.Body, true)

	case *ast.TypeSwitchStmt:
		b.buildSwitch(s.Init, nil, s.Assign, s.Body, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		after := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, brk: after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			caseBlk := b.newBlock()
			b.edge(head, caseBlk)
			b.cur = caseBlk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmts(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		// A select with no cases blocks forever: head keeps no successors.
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.add(s)
			if t := b.findLoop(labelName(s.Label), false); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.CONTINUE:
			b.add(s)
			if t := b.findLoop(labelName(s.Label), true); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.GOTO:
			b.add(s)
			// A nil label only survives parser error recovery; treat the
			// jump as going nowhere rather than crashing.
			if name := labelName(s.Label); name != "" {
				if t, ok := b.labels[name]; ok {
					b.edge(b.cur, t)
				} else {
					b.gotos[name] = append(b.gotos[name], b.cur)
				}
			}
			b.cur = nil
		case token.FALLTHROUGH:
			b.add(s)
			if b.fallNext != nil {
				b.edge(b.cur, b.fallNext)
			}
			b.cur = nil
		}

	default:
		// DeclStmt, AssignStmt, ExprStmt, SendStmt, IncDecStmt, GoStmt,
		// DeferStmt, EmptyStmt — straight-line nodes.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
		if isNoReturnStmt(s) {
			b.cur.Panic = true
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	}
}

// buildSwitch handles value switches (tag, fallthrough allowed) and type
// switches (assign, no fallthrough).
func (b *cfgBuilder) buildSwitch(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, allowFall bool) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		bodies[i] = b.newBlock()
		b.edge(head, bodies[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after) // no case matched
	}
	b.loops = append(b.loops, loopCtx{label: label, brk: after})
	for i, cc := range clauses {
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		savedFall := b.fallNext
		b.fallNext = nil
		if allowFall && i+1 < len(bodies) {
			b.fallNext = bodies[i+1]
		}
		b.stmts(cc.Body)
		b.fallNext = savedFall
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

// labelName returns the label's name, or "" for an unlabeled branch.
func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// ownExprs returns the parts of a CFG node that belong to it alone. A
// RangeStmt head is stored whole, but the CFG splits its body into
// separate blocks — walking the full statement would double-visit body
// nodes — so only the range clause expressions are its own.
func ownExprs(n ast.Node) []ast.Node {
	rs, ok := n.(*ast.RangeStmt)
	if !ok {
		return []ast.Node{n}
	}
	var out []ast.Node
	for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// isNoReturnStmt reports whether a statement never returns control:
// panic(...), os.Exit(...), or log.Fatal*(...). Purely syntactic — good
// enough for terminator detection, and a false negative only costs an
// extra conservative CFG edge.
func isNoReturnStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			if pkg.Name == "os" && fn.Sel.Name == "Exit" {
				return true
			}
			if pkg.Name == "log" && strings.HasPrefix(fn.Sel.Name, "Fatal") {
				return true
			}
		}
	}
	return false
}

// Dump renders the CFG compactly for tests and debugging: one line per
// block with its node summaries and successor indices. The Exit block
// prints as "exit".
func (c *CFG) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		if blk == c.Exit {
			continue
		}
		fmt.Fprintf(&sb, "b%d", blk.Index)
		if blk.Panic {
			sb.WriteString(" panic")
		}
		sb.WriteString(" [")
		for i, n := range blk.Nodes {
			if i > 0 {
				sb.WriteString("; ")
			}
			sb.WriteString(nodeSummary(fset, n))
		}
		sb.WriteString("] ->")
		if len(blk.Succs) == 0 {
			sb.WriteString(" (none)")
		}
		for _, s := range blk.Succs {
			if s == c.Exit {
				sb.WriteString(" exit")
			} else {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// nodeSummary renders one AST node as a single collapsed line.
func nodeSummary(fset *token.FileSet, n ast.Node) string {
	if rs, ok := n.(*ast.RangeStmt); ok {
		// Print only the clause, not the body the CFG already split out.
		var sb strings.Builder
		sb.WriteString("range ")
		if err := printer.Fprint(&sb, fset, rs.X); err != nil {
			return "range ?"
		}
		return sb.String()
	}
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, n); err != nil {
		return fmt.Sprintf("%T", n)
	}
	out := strings.Join(strings.Fields(sb.String()), " ")
	if len(out) > 60 {
		out = out[:57] + "..."
	}
	return out
}
