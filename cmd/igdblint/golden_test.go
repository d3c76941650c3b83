package main

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"igdb/internal/lint"
)

// The golden corpus: one package per analyzer demonstrating caught
// violations, one package exercising the //lint:ignore directive, and one
// package that must produce zero findings.
var goldenDirs = []string{
	"errdrop", "logdisc", "guarded", "sqlbad",
	"lockorder", "callgraph",
	"directives", "clean",
}

// Expectations are written in the corpus sources as trailing comments:
//
//	bad()   // want `rule: message substring`
//
// and, for findings whose own line cannot carry a comment (a directive is
// itself one comment), on the line before:
//
//	// want-next `rule: message substring`
//	//lint:ignore errdrop
var (
	wantRE     = regexp.MustCompile("want\\s+`([^`]+)`")
	wantNextRE = regexp.MustCompile("want-next\\s+`([^`]+)`")
)

type expectation struct {
	file    string // basename
	line    int
	substr  string
	matched bool
}

// parseWants scans every .go file under dir for want annotations.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus sources in %s (%v)", dir, err)
	}
	var wants []*expectation
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &expectation{file: filepath.Base(path), line: line, substr: m[1]})
			}
			for _, m := range wantNextRE.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &expectation{file: filepath.Base(path), line: line + 1, substr: m[1]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// TestGoldenCorpus lints each corpus package in isolation and requires the
// findings to match the want annotations exactly: every annotation must be
// hit and no finding may be unannotated. The clean package has no
// annotations, so any finding there fails the test.
func TestGoldenCorpus(t *testing.T) {
	for _, dir := range goldenDirs {
		t.Run(dir, func(t *testing.T) {
			rel := filepath.Join("testdata", "src", "internal", dir)
			pkgs, fset, err := lint.Load([]string{"./" + rel})
			if err != nil {
				t.Fatalf("loading corpus: %v", err)
			}
			wants := parseWants(t, rel)
			findings := lint.NewLinter().Run(pkgs, fset)
		finding:
			for _, f := range findings {
				rendered := f.Rule + ": " + f.Message
				for _, w := range wants {
					if !w.matched && w.file == filepath.Base(f.File) && w.line == f.Line &&
						strings.Contains(rendered, w.substr) {
						w.matched = true
						continue finding
					}
				}
				t.Errorf("unexpected finding: %s", f)
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.substr)
				}
			}
		})
	}
}

// TestGoldenDeterministic replays every corpus package twice and requires
// byte-identical findings in sorted (file, line, col, rule, message)
// order — the corpus is a regression baseline, so the replay must be
// deterministic across runs.
func TestGoldenDeterministic(t *testing.T) {
	lintDir := func(dir string) []lint.Finding {
		rel := filepath.Join("testdata", "src", "internal", dir)
		pkgs, fset, err := lint.Load([]string{"./" + rel})
		if err != nil {
			t.Fatalf("loading corpus %s: %v", dir, err)
		}
		return lint.NewLinter().Run(pkgs, fset)
	}
	for _, dir := range goldenDirs {
		first := lintDir(dir)
		second := lintDir(dir)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two lint runs disagree:\nfirst:  %v\nsecond: %v", dir, first, second)
		}
		sorted := sort.SliceIsSorted(first, func(i, j int) bool {
			a, b := first[i], first[j]
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
		if !sorted {
			t.Errorf("%s: findings are not in sorted order: %v", dir, first)
		}
	}
}
