package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// frozenFlags is every flag registration in this package's sources, sorted,
// duplicates included (addBuildFlags registers the shared -dir/-as-of/
// -degraded/-stale-after once; collect and simulate each have a -seed).
// Scripts and docs depend on these spellings, so extending igdb's CLI
// surface means updating this list deliberately.
var frozenFlags = []string{
	"addr", "analyze", "as-of", "as-of", "cache-size",
	"continue-on-error", "degraded", "degraded", "dir", "dir",
	"dir", "explain", "follow", "format", "layer", "leader",
	"log-json", "max-concurrency", "max-rows", "o",
	"pairs", "pprof", "query-log", "rebuild-every", "replica-poll",
	"retries", "scale", "scenarios", "seed", "seed",
	"simulate-scenarios", "simulate-seed", "slow-query", "stale-after",
	"stale-after", "stmt-stats", "timeout", "top", "trace",
}

// flagMethods maps flag.FlagSet registration methods to the index of their
// name argument.
var flagMethods = map[string]int{
	"String": 0, "Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
	"Float64": 0, "Duration": 0,
	"StringVar": 1, "BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1,
	"Uint64Var": 1, "Float64Var": 1, "DurationVar": 1,
}

// registeredFlags parses every non-test .go file in dir and collects the
// names passed to flag.FlagSet registration calls, sorted.
func registeredFlags(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			argIdx, ok := flagMethods[sel.Sel.Name]
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			lit, ok := call.Args[argIdx].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			got = append(got, name)
			return true
		})
	}
	sort.Strings(got)
	return got
}

func TestNoNewFlags(t *testing.T) {
	if got := registeredFlags(t, "."); !reflect.DeepEqual(got, frozenFlags) {
		t.Errorf("igdb's flag surface changed.\n got: %q\nwant: %q\nIf the change is intentional, update frozenFlags.", got, frozenFlags)
	}
}
