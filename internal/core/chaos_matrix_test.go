package core_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"igdb/internal/chaos"
	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/worldgen"
)

var (
	matrixOnce  sync.Once
	matrixStore *ingest.Store
)

// matrixBase collects one clean small-world store shared by every matrix
// cell (chaos corrupts deep copies, never the base).
func matrixBase(t *testing.T) *ingest.Store {
	t.Helper()
	matrixOnce.Do(func() {
		w := worldgen.Generate(worldgen.SmallConfig())
		matrixStore = ingest.NewStore("")
		if err := ingest.Collect(w, matrixStore, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)); err != nil {
			panic(err)
		}
	})
	return matrixStore
}

// fastOpts keeps each matrix build cheap; the matrix is about fault
// handling, not geometry.
func fastOpts(degraded bool) core.BuildOptions {
	return core.BuildOptions{SkipPolygons: true, Degraded: degraded}
}

// matrixFaults are the acceptance fault classes, by name.
var matrixFaults = []struct {
	name       string
	faults     []chaos.Fault
	wantStatus []string // acceptable degraded-mode verdicts
}{
	{"truncate", []chaos.Fault{chaos.Truncate("")}, []string{core.StatusCorrupt}},
	{"garble", []chaos.Fault{chaos.Garble("")}, []string{core.StatusCorrupt}},
	{"drop", []chaos.Fault{chaos.Drop()}, []string{core.StatusMissing}},
	{"transient", []chaos.Fault{chaos.Transient(100)}, []string{core.StatusQuarantined}},
}

// TestChaosMatrix drives every source through every fault class, in both
// strict and degraded mode — the PR's acceptance matrix. Strict builds must
// fail loudly naming the source; degraded builds must succeed with exactly
// that source quarantined in source_status.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is expensive; skipped with -short")
	}
	base := matrixBase(t)
	for _, source := range ingest.Sources {
		source := source
		for _, fc := range matrixFaults {
			fc := fc
			t.Run(source+"/"+fc.name, func(t *testing.T) {
				t.Parallel()
				cs := chaos.New(base, 42)
				cs.Inject(source, fc.faults...)

				// Strict: the build must abort with an error naming the
				// source.
				if _, err := core.Build(cs, fastOpts(false)); err == nil {
					t.Fatalf("strict build survived %s on %s", fc.name, source)
				} else if !strings.Contains(err.Error(), source) {
					t.Fatalf("strict build error does not name %s: %v", source, err)
				}

				// Degraded: the build must succeed, quarantining only this
				// source. (Transient budgets are consumed by the strict
				// build's single read, so re-arm.)
				cs.Clear(source)
				cs.Inject(source, fc.faults...)
				g, err := core.Build(cs, fastOpts(true))
				if err != nil {
					t.Fatalf("degraded build failed on %s/%s: %v", source, fc.name, err)
				}
				verdicts := map[string]string{}
				for _, st := range g.SourceStatus {
					verdicts[st.Source] = st.Status
				}
				got := verdicts[source]
				okVerdict := false
				for _, want := range fc.wantStatus {
					if got == want {
						okVerdict = true
					}
				}
				if !okVerdict {
					t.Fatalf("%s under %s: status = %q, want one of %v (all: %v)",
						source, fc.name, got, fc.wantStatus, verdicts)
				}
				for src, st := range verdicts {
					if src != source && st != core.StatusOK {
						t.Errorf("healthy source %s reported %q", src, st)
					}
				}

				// The provenance must be queryable in-database, and the
				// database must answer SQL.
				rows, err := g.Rel.Query(
					`SELECT source, status, error FROM source_status WHERE status <> 'ok'`)
				if err != nil {
					t.Fatalf("source_status query: %v", err)
				}
				if rows.Len() != 1 {
					t.Fatalf("source_status rows with status<>ok = %d, want 1", rows.Len())
				}
				gotSrc, _ := rows.Rows[0][0].AsText()
				gotErr, _ := rows.Rows[0][2].AsText()
				if gotSrc != source {
					t.Fatalf("source_status names %q, want %q", gotSrc, source)
				}
				if gotErr == "" {
					t.Fatalf("source_status error column empty for %s/%s", source, fc.name)
				}
			})
		}
	}
}

// TestChaosMatrixDeterministic asserts the same seed yields the same
// corrupt bytes, so any matrix failure is replayable.
func TestChaosMatrixDeterministic(t *testing.T) {
	base := matrixBase(t)
	for _, seedPair := range [][2]int64{{7, 7}, {7, 8}} {
		a := chaos.New(base, seedPair[0])
		b := chaos.New(base, seedPair[1])
		a.Inject("pch", chaos.Garble(""))
		b.Inject("pch", chaos.Garble(""))
		sa, err := a.Latest("pch", time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Latest("pch", time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		same := string(sa.Files["ixpdir.tsv"]) == string(sb.Files["ixpdir.tsv"])
		if wantSame := seedPair[0] == seedPair[1]; same != wantSame {
			t.Errorf("seeds %v: corrupt bytes identical = %v, want %v", seedPair, same, wantSame)
		}
	}
}

// TestDegradedBuildCleanStore asserts a degraded build over a healthy
// store quarantines nothing and reports every source ok.
func TestDegradedBuildCleanStore(t *testing.T) {
	g, err := core.Build(matrixBase(t), fastOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	if g.Degraded() {
		t.Fatalf("clean store reported degraded: %v", g.QuarantinedSources())
	}
	if len(g.SourceStatus) != len(ingest.Sources) {
		t.Fatalf("source statuses = %d, want %d", len(g.SourceStatus), len(ingest.Sources))
	}
}

// TestStaleSourceQuarantined asserts staleness classification: a source
// whose snapshot lags the newest by more than StaleAfter is stale in
// degraded mode and a loud error in strict mode.
func TestStaleSourceQuarantined(t *testing.T) {
	w := worldgen.Generate(worldgen.SmallConfig())
	store := ingest.NewStore("")
	old := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := ingest.Collect(w, store, old); err != nil {
		t.Fatal(err)
	}
	// Refresh every source except rdns a month later.
	fresh := old.AddDate(0, 1, 0)
	if err := ingest.Collect(w, store, fresh); err != nil {
		t.Fatal(err)
	}
	// chaos cannot age snapshots, so assemble a store where only rdns is
	// pinned to the old acquisition.
	store2 := ingest.NewStore("")
	for _, src := range ingest.Sources {
		at := fresh
		if src == "rdns" {
			at = old
		}
		snap, err := store.Latest(src, at)
		if err != nil {
			t.Fatal(err)
		}
		if err := store2.Save(snap); err != nil {
			t.Fatal(err)
		}
	}

	opts := fastOpts(true)
	opts.StaleAfter = 7 * 24 * time.Hour
	g, err := core.Build(store2, opts)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, st := range g.SourceStatus {
		verdicts[st.Source] = st.Status
	}
	if verdicts["rdns"] != core.StatusStale {
		t.Fatalf("rdns status = %q, want stale (all: %v)", verdicts["rdns"], verdicts)
	}

	strict := fastOpts(false)
	strict.StaleAfter = 7 * 24 * time.Hour
	if _, err := core.Build(store2, strict); err == nil {
		t.Fatal("strict build accepted a stale source")
	} else if !strings.Contains(err.Error(), "rdns") {
		t.Fatalf("strict stale error does not name rdns: %v", err)
	}
}
