package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRulesFlag locks the -rules listing: exactly these analyzers in
// registration order, each with a one-line doc. directive must stay last —
// it reports unused suppressions after every other analyzer has run.
func TestRulesFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-rules"}, &out, &errb); code != 0 {
		t.Fatalf("igdblint -rules exited %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	want := []string{
		"sqlcheck", "errdrop", "logdiscipline",
		"guardedby", "lockorder", "callgraph",
		"directive",
	}
	if len(lines) != len(want) {
		t.Fatalf("expected %d analyzer lines, got %d:\n%s", len(want), len(lines), out.String())
	}
	for i, name := range want {
		fields := strings.Fields(lines[i])
		if len(fields) < 2 || fields[0] != name {
			t.Errorf("line %d: want analyzer %q with a doc string, got %q", i, name, lines[i])
		}
	}
}

// TestJSONCleanPackage: a clean package yields a report object with an
// empty findings array (not null) and exit status 0.
func TestJSONCleanPackage(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-json", "./testdata/src/internal/clean"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on clean package, stderr: %s", code, errb.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rep.Findings == nil || len(rep.Findings) != 0 {
		t.Fatalf("want empty findings array, got %v", rep.Findings)
	}
	if !strings.Contains(out.String(), `"findings": []`) {
		t.Errorf("findings must serialize as [], not null:\n%s", out.String())
	}
}

// TestJSONFindings: findings come back as a parseable report object with
// relative paths, and the exit status is 1.
func TestJSONFindings(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-json", "./testdata/src/internal/errdrop"}, &out, &errb); code != 1 {
		t.Fatalf("want exit 1 on findings, got %d, stderr: %s", code, errb.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Findings) != 3 {
		t.Fatalf("want 3 errdrop findings, got %d: %v", len(rep.Findings), rep.Findings)
	}
	for _, f := range rep.Findings {
		if f.Rule != "errdrop" {
			t.Errorf("unexpected rule %q in %v", f.Rule, f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path not relativized: %s", f.File)
		}
	}
	if !strings.Contains(errb.String(), "3 finding(s)") {
		t.Errorf("stderr missing findings count: %q", errb.String())
	}
}

// TestBadPattern: load failures are usage errors (exit 2), distinct from
// findings (exit 1).
func TestBadPattern(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"./testdata/does-not-exist"}, &out, &errb); code != 2 {
		t.Fatalf("want exit 2 on a bad pattern, got %d", code)
	}
}

// TestFlagFreeze pins the CLI surface: exactly these flags and no others.
// Analyzer behavior is steered by in-source annotations (//lint:ignore,
// // guarded by), never by command-line knobs — a new flag here is an
// interface change that needs the docs and this freeze updated together.
func TestFlagFreeze(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-help"}, &out, &errb); code != 2 {
		t.Fatalf("igdblint -help exited %d, want 2 (flag.ErrHelp)", code)
	}
	want := []string{"json", "rules"}
	var got []string
	for _, line := range strings.Split(errb.String(), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "-") {
			got = append(got, strings.Fields(trimmed)[0][1:])
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag set = %v, want %v\nusage:\n%s", got, want, errb.String())
	}
}
