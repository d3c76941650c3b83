package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// pinnedResultSHA holds the digest of every experiment's output on the
// seed-42 small world: title, header, rows, notes and artifact bytes. A
// change that is meant to leave the experiments' answers alone (a faster
// algorithm, a refactor) must leave these unchanged; one that changes an
// answer on purpose updates its digest and says why.
var pinnedResultSHA = map[string]string{
	"table1":    "dfe3fd4274482b9797f7511487a03c7ca4a0abced46fbd8eb76238852d318b9d",
	"table2":    "91e279699b1f1e927f898e828a837f56137cf6f4079c8db598b5f7d6b1992c6f",
	"table3":    "a95c06af420cab80c13c4273827fe477a2229e117c21fd2588197d890158a3a7",
	"figure3":   "91d0cd84641af78fc3a702d96b16762c2517a3e22a747282e189450f9ea384ea",
	"figure4":   "46464e975efb27b22ebc5d93ef9fd0af7395a49b4bb2d24bc05c2ed1da34c19f",
	"figure5":   "e730aac8e9d876fd47eb23369dcdbbb593069f007e2568718105b212746e3e95",
	"figure6":   "493f70231db0503e47d591900dc0019b66654e5b544a7257559cdac81e94f1d7",
	"figure7":   "35528b867c6f9cefb54eef9220f29d477371f8f4f4a772c7bc8f516531913b4e",
	"figure8":   "8e31a2963a0af1045c3c63750236b0460be8d4a51f9573c8f818d6d0b4aa4f08",
	"figure9":   "74dbda9a1be7b840c30cdbb555fa54e2f8d722ae5d4eae1ea3ae1df1b9c7bcc9",
	"figure10":  "81eb7f574ef5f18d7be2ca783bdef164f7b6287a8a4f4d854f648a1c6c55caad",
	"section44": "8c3464bbc2bf56ce17cc70f7dcaeee6d31dff47af109f8c0186c88fba8c5eac5",
}

// resultDigest hashes everything a Result reports, artifacts in name order.
func resultDigest(r Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x1e%s\x1e%s\x1e", r.ID, r.Title, strings.Join(r.Header, "\x1f"))
	for _, row := range r.Rows {
		fmt.Fprintf(h, "row\x1f%s\x1e", strings.Join(row, "\x1f"))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(h, "note\x1f%s\x1e", n)
	}
	names := make([]string, 0, len(r.Artifacts))
	for name := range r.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "artifact\x1f%s\x1f%d\x1e", name, len(r.Artifacts[name]))
		h.Write(r.Artifacts[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestResultDigestsPinned: all 12 experiments reproduce their pinned
// output on the seed-42 small world.
func TestResultDigestsPinned(t *testing.T) {
	e := env(t)
	results := e.All()
	if len(results) != len(pinnedResultSHA) {
		t.Errorf("%d results, %d pinned digests", len(results), len(pinnedResultSHA))
	}
	for _, r := range results {
		if got, want := resultDigest(r), pinnedResultSHA[r.ID]; got != want {
			t.Errorf("%s: digest %s, pinned %q", r.ID, got, want)
		}
	}
}
