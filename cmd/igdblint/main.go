// Command igdblint is iGDB's project-aware static analyzer. It proves, at
// lint time, invariants the Go compiler, go vet and the test suite cannot:
// every SQL literal parses and runs in internal/reldb, alone in an empty
// database holding the canonical internal/core schema (sqlcheck),
// internal packages neither drop errors (errdrop) nor bypass internal/obs
// (logdiscipline), mutex-guard annotations hold on every path
// (guardedby), locks are released on all exits and acquired in a
// deadlock-free global order (lockorder), every unexported function has a
// use that go/types records or satisfies a visible interface (callgraph),
// and every //lint:ignore suppresses something (directive).
// Three invariants are gated at run time instead. internal/leakgate fails
// a package whose tests leave its goroutines running, and its own test
// fails when a package that starts goroutines does not run it. The
// server's tests read every value of each snapshot it publishes, so the
// race detector reports a write made after the publish, and compare the
// serving snapshot before and after one request to each route. The
// replication fetcher's tests count the response bodies they receive and
// fail on one left open.
//
// Usage:
//
//	igdblint [-json] [packages...]   lint packages (default ./...)
//	igdblint -rules                  list analyzers with one-line docs
//
// Findings print as file:line:col: rule: message and make the exit status
// non-zero (1 = findings, 2 = usage or load failure). With -json the
// report is an object {"findings": [...]}. A finding is suppressed by the
// directive `//lint:ignore <rule> <reason>` on the same or the preceding
// line; directives with unknown rules, missing reasons, or that suppress
// nothing are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"igdb/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the -json output shape.
type report struct {
	Findings []lint.Finding `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("igdblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	rules := fs.Bool("rules", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	linter := lint.NewLinter()
	if *rules {
		for _, a := range linter.Analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings := linter.Run(pkgs, fset)
	relativize(findings)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(report{Findings: findings}); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "igdblint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relativize rewrites absolute file paths relative to the working
// directory when that makes them shorter and clickable.
func relativize(findings []lint.Finding) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i, f := range findings {
		if rel, err := filepath.Rel(wd, f.File); err == nil && len(rel) < len(f.File) {
			findings[i].File = rel
		}
	}
}
