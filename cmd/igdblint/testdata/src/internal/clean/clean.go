// Package clean is igdblint golden-corpus input: a package every analyzer
// passes without findings.
package clean

import (
	"sync"

	"igdb/internal/reldb"
)

// longPathsSQL validates against the canonical std_paths relation.
const longPathsSQL = "SELECT from_metro, to_metro, distance_km FROM std_paths WHERE distance_km > 1000"

type registry struct {
	mu    sync.Mutex
	names map[string]bool // guarded by mu
}

func (r *registry) add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names[name] = true
}

func query(db *reldb.DB) (*reldb.Rows, error) {
	return db.Query(longPathsSQL)
}

// Used here so the callgraph rule reports none of the corpus's functions.
var _ = []any{(*registry).add, query}
