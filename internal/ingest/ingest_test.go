package ingest

import (
	"testing"
	"time"

	"igdb/internal/leakgate"
	"igdb/internal/worldgen"
)

// TestMain fails the package when its tests leave goroutines running
// its code.
func TestMain(m *testing.M) { leakgate.Main(m, "igdb/internal/ingest") }

var world = worldgen.Generate(worldgen.SmallConfig())

func ts(day int) time.Time {
	return time.Date(2026, 7, day, 12, 0, 0, 0, time.UTC)
}

func TestCollectMemoryStore(t *testing.T) {
	store := NewStore("")
	if err := Collect(world, store, ts(1)); err != nil {
		t.Fatal(err)
	}
	for _, src := range Sources {
		snap, err := store.Latest(src, time.Time{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(snap.Files) == 0 {
			t.Fatalf("%s: empty snapshot", src)
		}
		for name, data := range snap.Files {
			if len(data) == 0 {
				t.Fatalf("%s/%s: empty file", src, name)
			}
		}
	}
}

func TestLatestAsOfSelection(t *testing.T) {
	store := NewStore("")
	if err := Collect(world, store, ts(1)); err != nil {
		t.Fatal(err)
	}
	if err := Collect(world, store, ts(10)); err != nil {
		t.Fatal(err)
	}
	// Newest by default.
	snap, err := store.Latest("atlas", time.Time{})
	if err != nil || !snap.AsOf.Equal(ts(10)) {
		t.Errorf("latest = %v, err=%v; want day 10", snap.AsOf, err)
	}
	// Historical as-of picks the older snapshot.
	snap, err = store.Latest("atlas", ts(5))
	if err != nil || !snap.AsOf.Equal(ts(1)) {
		t.Errorf("as-of day 5 = %v, err=%v; want day 1", snap.AsOf, err)
	}
	// Before the first snapshot: error. This is the only call that takes
	// that path, so it runs in a goroutine: a lock taken twice there fails
	// the test in seconds instead of hanging to the package -timeout.
	done := make(chan error, 1)
	go func() {
		_, err := store.Latest("atlas", ts(1).Add(-time.Hour))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("as-of before any snapshot should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Latest before any snapshot still running after 5s")
	}
	// Unknown source: error.
	if _, err := store.Latest("nope", time.Time{}); err == nil {
		t.Error("unknown source should fail")
	}
	if got := len(store.Versions("atlas")); got != 2 {
		t.Errorf("versions = %d, want 2", got)
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(dir)
	if err := Collect(world, store, ts(2)); err != nil {
		t.Fatal(err)
	}
	// A fresh store must recover everything from disk.
	store2 := NewStore(dir)
	if err := store2.Load(); err != nil {
		t.Fatal(err)
	}
	for _, src := range Sources {
		orig, err1 := store.Latest(src, time.Time{})
		loaded, err2 := store2.Latest(src, time.Time{})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", src, err1, err2)
		}
		if !orig.AsOf.Equal(loaded.AsOf) {
			t.Fatalf("%s: timestamps differ", src)
		}
		if len(orig.Files) != len(loaded.Files) {
			t.Fatalf("%s: file sets differ", src)
		}
		for name, data := range orig.Files {
			got := loaded.Files[name]
			if string(got) != string(data) {
				t.Fatalf("%s/%s: content differs after disk round trip", src, name)
			}
		}
	}
}

func TestLoadMissingDirIsQuiet(t *testing.T) {
	store := NewStore("/nonexistent/igdb-test-dir")
	if err := store.Load(); err != nil {
		t.Errorf("missing dir should be quiet: %v", err)
	}
}

func TestSaveRejectsBadNames(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(dir)
	err := store.Save(Snapshot{
		Source: "x", AsOf: ts(1),
		Files: map[string][]byte{"../escape": []byte("no")},
	})
	if err == nil {
		t.Error("path traversal name should be rejected")
	}
	if err := store.Save(Snapshot{AsOf: ts(1)}); err == nil {
		t.Error("snapshot without source should be rejected")
	}
}
