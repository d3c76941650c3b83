package main

import (
	"strings"
	"testing"
)

// TestSimulateEndToEnd drives `igdb simulate` against a collected store and
// checks the PR's CLI acceptance criterion: the same store and seed yield
// an identical report (and therefore identical stored rows — the report is
// computed from them), while a different seed yields a different batch.
func TestSimulateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test re-executes the binary repeatedly")
	}
	dir := t.TempDir()
	if stdout, stderr, code := runCLI(t, "collect", "-dir", dir, "-scale", "small", "-seed", "42"); code != 0 {
		t.Fatalf("collect exited %d: %s%s", code, stdout, stderr)
	}

	run := func(seed, procs string) string {
		t.Helper()
		t.Setenv("GOMAXPROCS", procs)
		stdout, stderr, code := runCLI(t, "simulate", "-dir", dir,
			"-scenarios", "40", "-seed", seed, "-pairs", "64")
		if code != 0 {
			t.Fatalf("simulate exited %d: %s%s", code, stdout, stderr)
		}
		if !strings.Contains(stdout, "simulated 40 scenarios") {
			t.Fatalf("simulate stdout = %q", stdout)
		}
		if !strings.Contains(stdout, "stored ") {
			t.Fatalf("simulate stored no rows: %q", stdout)
		}
		return stdout
	}

	first := run("7", "1")
	again := run("7", "4")
	if first != again {
		t.Fatalf("same seed produced different reports at GOMAXPROCS 1 and 4:\n--- first\n%s--- again\n%s", first, again)
	}
	other := run("8", "1")
	if first == other {
		t.Fatal("different seeds produced identical reports")
	}

	// The stored scenarios are queryable through the ordinary SQL surface.
	stdout, stderr, code := runCLI(t, "sql", "-dir", dir, `SELECT COUNT(*) FROM scenario_runs`)
	if code != 0 {
		t.Fatalf("sql exited %d: %s%s", code, stdout, stderr)
	}
	// Each simulate run rebuilds from the store, so only the last run's
	// rows are present in this process's build: zero, because sql builds
	// its own fresh database. The relation must still exist and be empty.
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 2 || strings.TrimSpace(lines[1]) != "0" {
		t.Fatalf("scenario_runs on a fresh build = %q, want 0 rows", stdout)
	}
}
