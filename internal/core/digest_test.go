package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"igdb/internal/ingest"
	"igdb/internal/worldgen"
)

// Pinned outputs of the two graph searches on the seed-42 small world:
// worldgen's A* routes (which shape every traceroute and the routers they
// create) and core's right-of-way Dijkstra (std_paths). A change that is
// meant to leave every path alone must leave these unchanged; one that
// changes routing on purpose updates them and says why.
const (
	pinnedTracesSHA   = "bb749b2df824d7ea2ac2465a474d2591c3527dea1016605d40fa6758bd53ea9b"
	pinnedRoutersSHA  = "e73e1a296a8da09eda93858c35b43b398986091cb8cb641e6b47745182211cd0"
	pinnedStdPathsSHA = "071b46eb79aa6e6c92e67dc9406c59ec12ba15115575cfba9dd234b3fb7724ba"
)

// smallWorldDigests generates the small world, builds it and hashes its
// traceroutes, its routers and its std_paths rows (sorted, every column).
func smallWorldDigests() (traces, routers, stdPaths string, err error) {
	w := worldgen.Generate(worldgen.SmallConfig())
	store := ingest.NewStore("")
	if err := ingest.Collect(w, store, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		return "", "", "", err
	}
	g, err := Build(store, BuildOptions{SkipTrace: true})
	if err != nil {
		return "", "", "", err
	}
	jsonSHA := func(v interface{}) (string, error) {
		b, err := json.Marshal(v)
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:]), err
	}
	if traces, err = jsonSHA(w.Traces); err != nil {
		return "", "", "", err
	}
	if routers, err = jsonSHA(w.Routers); err != nil {
		return "", "", "", err
	}
	rows, err := g.Rel.Query(`SELECT * FROM std_paths`)
	if err != nil {
		return "", "", "", err
	}
	lines := make([]string, len(rows.Rows))
	for i, row := range rows.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprint(v.Interface())
		}
		lines[i] = strings.Join(cells, "\x1f")
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return traces, routers, hex.EncodeToString(sum[:]), nil
}

// TestSmallWorldDigestsPinned: the world and its std_paths are the same
// bytes at any GOMAXPROCS. Each run gets a bounded wait, so a deadlocked
// worker fails the test instead of hanging the package.
func TestSmallWorldDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and builds the small world three times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		type digests struct {
			traces, routers, stdPaths string
			err                       error
		}
		done := make(chan digests, 1)
		go func() {
			var d digests
			d.traces, d.routers, d.stdPaths, d.err = smallWorldDigests()
			done <- d
		}()
		select {
		case d := <-done:
			if d.err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, d.err)
			}
			for _, c := range []struct{ name, got, want string }{
				{"traces", d.traces, pinnedTracesSHA},
				{"routers", d.routers, pinnedRoutersSHA},
				{"std_paths", d.stdPaths, pinnedStdPathsSHA},
			} {
				if c.got != c.want {
					t.Errorf("GOMAXPROCS=%d: %s digest %s, pinned %s", procs, c.name, c.got, c.want)
				}
			}
		case <-time.After(3 * time.Minute):
			t.Fatalf("GOMAXPROCS=%d: generate and build did not finish in 3m (deadlocked worker?)", procs)
		}
	}
}
