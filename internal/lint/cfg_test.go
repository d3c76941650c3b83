package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as a function body and returns it with its fset.
func parseBody(t testing.TB, src string) (*ast.BlockStmt, *token.FileSet) {
	if t != nil {
		t.Helper()
	}
	fset := token.NewFileSet()
	file := "package p\nfunc f() {\n" + src + "\n}"
	f, err := parser.ParseFile(fset, "cfg_test.go", file, 0)
	if err != nil {
		if t != nil {
			t.Fatalf("parse: %v\n%s", err, file)
		}
		return nil, nil
	}
	fn := f.Decls[len(f.Decls)-1].(*ast.FuncDecl)
	return fn.Body, fset
}

// edgeMap extracts "bN -> succs" pairs from a CFG for structural asserts.
func edgeMap(c *CFG) map[int][]string {
	out := map[int][]string{}
	for _, blk := range c.Blocks {
		if blk == c.Exit {
			continue
		}
		var succs []string
		for _, s := range blk.Succs {
			if s == c.Exit {
				succs = append(succs, "exit")
			} else {
				succs = append(succs, fmt.Sprintf("b%d", s.Index))
			}
		}
		out[blk.Index] = succs
	}
	return out
}

// TestCFGStructure pins block/edge structure for every control construct
// the builder handles. Expectations name blocks by index (entry is b0,
// exit is b1) and list each block's successors in edge order; blocks whose
// index is not listed must have no successors.
func TestCFGStructure(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want map[int][]string // block index -> successor labels
	}{
		{
			name: "straight line",
			src:  "x := 1\n_ = x",
			want: map[int][]string{0: {"exit"}},
		},
		{
			name: "if without else",
			src:  "x := 1\nif x > 0 {\nx = 2\n}\n_ = x",
			// b0: cond (true->b2 then, false->b3 after), b2 -> b3, b3 -> exit
			want: map[int][]string{0: {"b2", "b3"}, 2: {"b3"}, 3: {"exit"}},
		},
		{
			name: "if with else",
			src:  "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x",
			want: map[int][]string{0: {"b2", "b3"}, 2: {"b4"}, 3: {"b4"}, 4: {"exit"}},
		},
		{
			name: "if with early return",
			src:  "x := 1\nif x > 0 {\nreturn\n}\n_ = x",
			// then-block returns straight to exit; only the false edge
			// reaches the after-block.
			want: map[int][]string{0: {"b2", "b3"}, 2: {"exit"}, 3: {"exit"}},
		},
		{
			name: "for with cond and post",
			src:  "for i := 0; i < 3; i++ {\n_ = i\n}",
			// b0 init -> b2 head; head true->b3 body, false->b4 after;
			// body -> b5 post -> head.
			want: map[int][]string{0: {"b2"}, 2: {"b3", "b4"}, 3: {"b5"}, 4: {"exit"}, 5: {"b2"}},
		},
		{
			name: "infinite for without break",
			src:  "for {\n_ = 1\n}",
			// head -> body -> head; the after-block exists but nothing
			// reaches it, and nothing reaches exit.
			want: map[int][]string{0: {"b2"}, 2: {"b3"}, 3: {"b2"}, 4: {"exit"}},
		},
		{
			name: "for with break and continue",
			src:  "for {\nif true {\nbreak\n}\nif false {\ncontinue\n}\n_ = 1\n}",
			want: map[int][]string{
				0: {"b2"},       // entry -> head
				2: {"b3"},       // head -> body
				3: {"b5", "b6"}, // if true: then(b5), after(b6)
				5: {"b4"},       // break -> after-loop
				6: {"b7", "b8"}, // if false: then(b7), after(b8)
				7: {"b2"},       // continue -> head
				8: {"b2"},       // body end -> head
				4: {"exit"},     // after-loop -> exit
			},
		},
		{
			name: "range",
			src:  "xs := []int{1}\nfor _, x := range xs {\n_ = x\n}",
			// b0 -> b2 head; head -> b3 body, b4 after; body -> head.
			want: map[int][]string{0: {"b2"}, 2: {"b3", "b4"}, 3: {"b2"}, 4: {"exit"}},
		},
		{
			name: "switch with default",
			src:  "x := 1\nswitch x {\ncase 1:\nx = 2\ncase 2:\nx = 3\ndefault:\nx = 4\n}\n_ = x",
			// head b0 -> case bodies b3,b4,b5 (default present: no direct
			// head->after edge); every body -> after b2.
			want: map[int][]string{0: {"b3", "b4", "b5"}, 3: {"b2"}, 4: {"b2"}, 5: {"b2"}, 2: {"exit"}},
		},
		{
			name: "switch without default",
			src:  "x := 1\nswitch x {\ncase 1:\nx = 2\n}\n_ = x",
			want: map[int][]string{0: {"b3", "b2"}, 3: {"b2"}, 2: {"exit"}},
		},
		{
			name: "switch fallthrough",
			src:  "x := 1\nswitch x {\ncase 1:\nfallthrough\ncase 2:\nx = 3\n}\n_ = x",
			// case-1 body b3 falls through to case-2 body b4.
			want: map[int][]string{0: {"b3", "b4", "b2"}, 3: {"b4"}, 4: {"b2"}, 2: {"exit"}},
		},
		{
			name: "type switch",
			src:  "var v interface{} = 1\nswitch v.(type) {\ncase int:\n_ = 1\ndefault:\n_ = 2\n}",
			want: map[int][]string{0: {"b3", "b4"}, 3: {"b2"}, 4: {"b2"}, 2: {"exit"}},
		},
		{
			name: "select",
			src:  "ch := make(chan int, 1)\nselect {\ncase v := <-ch:\n_ = v\ndefault:\n}",
			// head b0 -> comm cases b3,b4; both -> after b2. No head->after
			// edge: select always takes a case.
			want: map[int][]string{0: {"b3", "b4"}, 3: {"b2"}, 4: {"b2"}, 2: {"exit"}},
		},
		{
			name: "select forever",
			src:  "select {}",
			// No cases: the head blocks forever; the after-block exists but
			// nothing reaches it.
			want: map[int][]string{0: nil, 2: {"exit"}},
		},
		{
			name: "goto forward",
			src:  "x := 1\nif x > 0 {\ngoto done\n}\nx = 2\ndone:\n_ = x",
			// goto in then-block b2 targets the labeled block; label block
			// b4 (after) is fallthrough target too... structure: b0 cond ->
			// b2(goto)/b3(after-if); b3 -> b4 label; goto edge b2 -> b4.
			want: map[int][]string{0: {"b2", "b3"}, 2: {"b4"}, 3: {"b4"}, 4: {"exit"}},
		},
		{
			name: "labeled break",
			src:  "outer:\nfor {\nfor {\nbreak outer\n}\n}",
			want: map[int][]string{
				0: {"b2"},   // entry -> label block
				2: {"b3"},   // label -> outer head
				3: {"b4"},   // outer head -> outer body
				4: {"b6"},   // outer body -> inner head
				6: {"b7"},   // inner head -> inner body
				7: {"b5"},   // break outer -> outer after
				5: {"exit"}, // outer after -> exit
				8: {"b3"},   // inner after: unreachable, wired to outer head
			},
		},
		{
			name: "panic terminates",
			src:  "x := 1\nif x > 0 {\npanic(\"boom\")\n}\n_ = x",
			want: map[int][]string{0: {"b2", "b3"}, 2: {"exit"}, 3: {"exit"}},
		},
		{
			name: "defer stays in line",
			src:  "defer println(1)\n_ = 2",
			want: map[int][]string{0: {"exit"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, fset := parseBody(t, tc.src)
			cfg := BuildCFG(body)
			got := edgeMap(cfg)
			for idx, want := range tc.want {
				g := strings.Join(got[idx], " ")
				w := strings.Join(want, " ")
				if g != w {
					t.Errorf("block b%d successors = [%s], want [%s]\nCFG:\n%s",
						idx, g, w, cfg.Dump(fset))
				}
			}
			for idx, succs := range got {
				if _, listed := tc.want[idx]; !listed && len(succs) > 0 {
					t.Errorf("unexpected successors on b%d: %v\nCFG:\n%s", idx, succs, cfg.Dump(fset))
				}
			}
		})
	}
}

// reachable returns the set of blocks reachable from Entry.
func reachable(c *CFG) map[*Block]bool {
	seen := map[*Block]bool{c.Entry: true}
	stack := []*Block{c.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// TestCFGLabeledBreakUnreachableInnerAfter pins the quirk documented in the
// labeled-break case: the inner loop's after-block is built (wired to the
// outer loop's continue target) but unreachable.
func TestCFGLabeledBreakUnreachableInnerAfter(t *testing.T) {
	body, _ := parseBody(t, "outer:\nfor {\nfor {\nbreak outer\n}\n}")
	cfg := BuildCFG(body)
	reach := reachable(cfg)
	var unreachable []int
	for _, blk := range cfg.Blocks {
		if !reach[blk] && len(blk.Succs) > 0 {
			unreachable = append(unreachable, blk.Index)
		}
	}
	if len(unreachable) == 0 {
		t.Fatalf("expected an unreachable inner after-block, got none\n%s", cfg.Dump(token.NewFileSet()))
	}
}

// TestCFGPanicBlockMarked verifies panic/os.Exit blocks carry the Panic
// flag so lifetime analyzers can skip abnormal exits.
func TestCFGPanicBlockMarked(t *testing.T) {
	body, _ := parseBody(t, "x := 1\nif x > 0 {\npanic(\"a\")\n}\nif x > 1 {\nreturn\n}")
	cfg := BuildCFG(body)
	var panics, returns int
	for _, blk := range cfg.Blocks {
		if blk.Panic {
			panics++
		}
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
				if blk.Panic {
					t.Errorf("return block b%d wrongly marked Panic", blk.Index)
				}
			}
		}
	}
	if panics != 1 {
		t.Errorf("want exactly 1 panic-marked block, got %d", panics)
	}
	if returns != 1 {
		t.Errorf("want 1 return block, got %d", returns)
	}
}

// TestCFGCondConvention pins the Succs[0]=true / Succs[1]=false convention
// that edge-sensitive analyzers (guardedby and lockorder TryLock) rely on.
func TestCFGCondConvention(t *testing.T) {
	body, _ := parseBody(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}")
	cfg := BuildCFG(body)
	cond := cfg.Blocks[0]
	if cond.Cond == nil {
		t.Fatal("entry block should carry the branch condition")
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("cond block has %d successors, want 2", len(cond.Succs))
	}
	// The true block assigns 2, the false block assigns 3.
	litOf := func(b *Block) string {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if lit, ok := as.Rhs[0].(*ast.BasicLit); ok {
					return lit.Value
				}
			}
		}
		return ""
	}
	if got := litOf(cond.Succs[0]); got != "2" {
		t.Errorf("Succs[0] (true edge) assigns %q, want \"2\"", got)
	}
	if got := litOf(cond.Succs[1]); got != "3" {
		t.Errorf("Succs[1] (false edge) assigns %q, want \"3\"", got)
	}
}

// TestSolveReachingMode exercises the generic solver with a tiny constant
// lattice: track whether each block can be reached with a flag set by one
// branch. The fixed point must mark the merge block "maybe".
func TestSolveReachingMode(t *testing.T) {
	body, _ := parseBody(t, "x := 1\nif x > 0 {\nx = 2\n}\n_ = x")
	cfg := BuildCFG(body)
	// Fact: 0 = flag clear, 1 = flag set, 2 = maybe (join of both).
	in := Solve(cfg, FlowProblem[int]{
		Entry: 0,
		Join: func(a, b int) int {
			if a == b {
				return a
			}
			return 2
		},
		Equal: func(a, b int) bool { return a == b },
		Transfer: func(b *Block, f int) int {
			for _, n := range b.Nodes {
				if as, ok := n.(*ast.AssignStmt); ok {
					if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Value == "2" {
						return 1
					}
				}
			}
			return f
		},
	})
	exitFact, ok := in[cfg.Exit]
	if !ok {
		t.Fatal("exit unreachable?")
	}
	if exitFact != 2 {
		t.Errorf("exit fact = %d, want 2 (maybe): one path sets the flag, one does not", exitFact)
	}
}

// TestSolveLoopTerminates pins termination on a looping CFG with a
// growing-then-capped fact.
func TestSolveLoopTerminates(t *testing.T) {
	body, _ := parseBody(t, "for i := 0; i < 3; i++ {\n_ = i\n}")
	cfg := BuildCFG(body)
	steps := 0
	in := Solve(cfg, FlowProblem[int]{
		Entry: 0,
		Join: func(a, b int) int {
			if a > b {
				return a
			}
			return b
		},
		Equal: func(a, b int) bool { return a == b },
		Transfer: func(b *Block, f int) int {
			steps++
			if steps > 10000 {
				t.Fatal("solver did not terminate")
			}
			if f < 3 { // finite-height chain 0..3
				return f + 1
			}
			return f
		},
	})
	if len(in) == 0 {
		t.Fatal("no facts computed")
	}
}

// FuzzCFG builds CFGs over arbitrary syntactically valid function bodies
// and asserts structural invariants instead of exact shapes: no panic, all
// successor pointers stay inside the block list, and the entry/exit blocks
// exist.
func FuzzCFG(f *testing.F) {
	seeds := []string{
		"x := 1\n_ = x",
		"if a() {\nreturn\n} else if b() {\npanic(1)\n}",
		"for i := 0; i < 10; i++ {\nif i == 2 {\ncontinue\n}\nif i == 3 {\nbreak\n}\n}",
		"outer:\nfor {\nselect {\ncase <-ch:\nbreak outer\ndefault:\ncontinue\n}\n}",
		"switch x {\ncase 1:\nfallthrough\ncase 2:\ngoto end\n}\nend:\nreturn",
		"defer f()\ngo g()\nL:\nfor range xs {\nbreak L\n}",
		"switch v := v.(type) {\ncase int:\n_ = v\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file := "package p\nfunc f() {\n" + src + "\n}"
		parsed, err := parser.ParseFile(fset, "fuzz.go", file, 0)
		if err != nil {
			t.Skip()
		}
		decl, ok := parsed.Decls[len(parsed.Decls)-1].(*ast.FuncDecl)
		if !ok || decl.Body == nil {
			t.Skip()
		}
		cfg := BuildCFG(decl.Body)
		if cfg.Entry == nil || cfg.Exit == nil {
			t.Fatal("missing entry/exit")
		}
		inList := map[*Block]bool{}
		for _, blk := range cfg.Blocks {
			inList[blk] = true
		}
		for _, blk := range cfg.Blocks {
			for _, s := range blk.Succs {
				if !inList[s] {
					t.Fatalf("block b%d has successor outside the block list", blk.Index)
				}
			}
			if blk != cfg.Exit && blk.Cond != nil && len(blk.Succs) != 2 {
				t.Fatalf("cond block b%d has %d successors, want 2", blk.Index, len(blk.Succs))
			}
		}
		if len(cfg.Exit.Succs) != 0 {
			t.Fatal("exit block must have no successors")
		}
		// The solver must terminate on whatever shape came out.
		Solve(cfg, FlowProblem[bool]{
			Entry:    false,
			Join:     func(a, b bool) bool { return a || b },
			Equal:    func(a, b bool) bool { return a == b },
			Transfer: func(b *Block, f bool) bool { return f || len(b.Nodes) > 3 },
		})
	})
}
