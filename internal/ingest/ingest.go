// Package ingest implements iGDB's collection pipeline (§2 of the paper):
// it pulls a snapshot from every input source, stamps it with an
// acquisition time, and stores the raw bytes so the database can be rebuilt
// for any historical as-of date. In the paper the sources are live web
// endpoints; here they are the worldgen-backed emulations, but the
// snapshot/refresh mechanics are identical — including the failure
// mechanics: sources time out, return garbage, or disappear, so collection
// retries transient errors with jittered exponential backoff and the build
// side can quarantine sources it cannot parse (core.BuildOptions.Degraded).
package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"igdb/internal/obs"
	"igdb/internal/sources/asrank"
	"igdb/internal/sources/atlas"
	"igdb/internal/sources/euroix"
	"igdb/internal/sources/he"
	"igdb/internal/sources/naturalearth"
	"igdb/internal/sources/pch"
	"igdb/internal/sources/peeringdb"
	"igdb/internal/sources/rdns"
	"igdb/internal/sources/ripeatlas"
	"igdb/internal/sources/routeviews"
	"igdb/internal/sources/telegeography"
	"igdb/internal/worldgen"
)

// Sources lists every dataset the collector pulls, in collection order.
var Sources = []string{
	"naturalearth", "atlas", "peeringdb", "telegeography", "pch", "he",
	"euroix", "rdns", "asrank", "routeviews", "ripeatlas",
}

// ErrNoSnapshot reports that a store holds no usable snapshot of a source.
// Callers distinguish "missing" from "corrupt" with errors.Is.
var ErrNoSnapshot = errors.New("ingest: no snapshot")

// transientError marks an error as retryable: the read may succeed if
// attempted again (timeouts, connection resets, rate limits). Parse errors
// are never transient — retrying a malformed document returns the same
// malformed document.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so IsTransient reports true. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// retryable with Transient.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// Snapshot is one timestamped pull of one source.
type Snapshot struct {
	Source string
	AsOf   time.Time
	Files  map[string][]byte
}

// Reader is the read side of a snapshot store: what core.Build and the
// paths pipeline consume. chaos.Store wraps any Reader to inject faults.
type Reader interface {
	// Latest returns the most recent snapshot of a source at or before
	// asOf (zero asOf = newest). A store with nothing usable returns an
	// error wrapping ErrNoSnapshot.
	Latest(source string, asOf time.Time) (Snapshot, error)
	// Versions lists the snapshot timestamps available for a source.
	Versions(source string) []time.Time
}

// Reloader is a Reader that can pick up snapshots collected since it was
// opened (the server's periodic rebuild path).
type Reloader interface {
	Reader
	Load() error
}

// Store persists snapshots. A Store with an empty dir keeps everything in
// memory (the common case for tests and benchmarks); with a dir it mirrors
// the paper's on-disk layout <dir>/<source>/<timestamp>/<file>.
//
// A Store is safe for concurrent use: the server's background rebuild
// re-reads it while a collector may still be appending snapshots.
type Store struct {
	dir string

	mu  sync.RWMutex
	mem map[string][]Snapshot // guarded by mu
}

var (
	_ Reader   = (*Store)(nil)
	_ Reloader = (*Store)(nil)
)

// NewStore creates a snapshot store. dir may be "" for memory-only.
func NewStore(dir string) *Store {
	return &Store{dir: dir, mem: make(map[string][]Snapshot)}
}

const tsLayout = "2006-01-02T15-04-05Z"

// Save stores a snapshot.
func (s *Store) Save(snap Snapshot) error {
	if snap.Source == "" {
		return fmt.Errorf("ingest: snapshot without source")
	}
	s.mu.Lock()
	s.mem[snap.Source] = append(s.mem[snap.Source], snap)
	sort.Slice(s.mem[snap.Source], func(i, j int) bool {
		return s.mem[snap.Source][i].AsOf.Before(s.mem[snap.Source][j].AsOf)
	})
	s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	base := filepath.Join(s.dir, snap.Source, snap.AsOf.UTC().Format(tsLayout))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	for name, data := range snap.Files {
		if strings.Contains(name, "/") || strings.Contains(name, "..") {
			return fmt.Errorf("ingest: invalid file name %q", name)
		}
		if err := os.WriteFile(filepath.Join(base, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Load reads all snapshots from disk into memory (no-op for memory stores).
func (s *Store) Load() error {
	if s.dir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, src := range entries {
		if !src.IsDir() {
			continue
		}
		tsDirs, err := os.ReadDir(filepath.Join(s.dir, src.Name()))
		if err != nil {
			return err
		}
		for _, td := range tsDirs {
			if !td.IsDir() {
				continue
			}
			asOf, err := time.Parse(tsLayout, td.Name())
			if err != nil {
				continue
			}
			if s.hasLocked(src.Name(), asOf) {
				continue
			}
			snap := Snapshot{Source: src.Name(), AsOf: asOf, Files: map[string][]byte{}}
			files, err := os.ReadDir(filepath.Join(s.dir, src.Name(), td.Name()))
			if err != nil {
				return err
			}
			for _, f := range files {
				data, err := os.ReadFile(filepath.Join(s.dir, src.Name(), td.Name(), f.Name()))
				if err != nil {
					return err
				}
				snap.Files[f.Name()] = data
			}
			s.mem[src.Name()] = append(s.mem[src.Name()], snap)
		}
		sort.Slice(s.mem[src.Name()], func(i, j int) bool {
			return s.mem[src.Name()][i].AsOf.Before(s.mem[src.Name()][j].AsOf)
		})
	}
	return nil
}

// hasLocked reports whether a snapshot of source at exactly asOf is already
// in memory. Callers hold s.mu, per the *Locked naming convention.
func (s *Store) hasLocked(source string, asOf time.Time) bool {
	//lint:ignore guardedby callers hold s.mu (the *Locked suffix convention)
	for _, sn := range s.mem[source] {
		if sn.AsOf.Equal(asOf) {
			return true
		}
	}
	return false
}

// Latest returns the most recent snapshot of a source at or before asOf.
// A zero asOf means "newest available".
func (s *Store) Latest(source string, asOf time.Time) (Snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snaps := s.mem[source]
	if len(snaps) == 0 {
		return Snapshot{}, fmt.Errorf("%w: no snapshots for %q", ErrNoSnapshot, source)
	}
	if asOf.IsZero() {
		return snaps[len(snaps)-1], nil
	}
	var best *Snapshot
	for i := range snaps {
		if !snaps[i].AsOf.After(asOf) {
			best = &snaps[i]
		}
	}
	if best == nil {
		return Snapshot{}, fmt.Errorf("%w: no snapshot of %q at or before %s", ErrNoSnapshot, source, asOf)
	}
	return *best, nil
}

// Versions lists the snapshot timestamps available for a source.
func (s *Store) Versions(source string) []time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []time.Time
	for _, sn := range s.mem[source] {
		out = append(out, sn.AsOf)
	}
	return out
}

// CollectOptions tunes the per-source retry loop. The zero value means
// "3 attempts, 100ms base backoff, fail the whole collection on the first
// exhausted source" — the strict semantics Collect always had.
type CollectOptions struct {
	// MaxAttempts bounds tries per source (<=0 means 3).
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt
	// (<=0 means 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubled delay (<=0 means 5s).
	MaxBackoff time.Duration
	// Seed drives the backoff jitter (0.5x–1.5x), so tests are
	// reproducible.
	Seed int64
	// ContinueOnError keeps collecting remaining sources after one
	// exhausts its attempt budget; the failure is reported in the
	// CollectReport instead of aborting.
	ContinueOnError bool
	// Sleep replaces the backoff wait between attempts (tests). When nil
	// the wait is a timer select that aborts on context cancellation.
	Sleep func(time.Duration)
	// Intercept, when set, runs before each fetch attempt and may return
	// an error to inject a fault (chaos.FlakySources builds these).
	// Transient errors are retried; permanent ones are not.
	Intercept func(source string, attempt int) error
	// Logger receives structured retry/give-up records. When nil
	// collection is silent.
	Logger *obs.Logger
}

func (o *CollectOptions) fillDefaults() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
}

// retriesTotal counts retry sleeps across every CollectWith call in this
// process — the igdb_collect_retries_total metric.
var retriesTotal atomic.Uint64

// RetriesTotal reports the process-wide count of collection retries.
func RetriesTotal() uint64 { return retriesTotal.Load() }

// SourceResult is one source's collection outcome.
type SourceResult struct {
	Source   string
	Attempts int
	Err      error // nil when the snapshot was saved
}

// CollectReport summarizes one CollectWith run.
type CollectReport struct {
	Results []SourceResult
}

// Failed lists the sources that exhausted their attempt budget.
func (r *CollectReport) Failed() []string {
	var out []string
	for _, res := range r.Results {
		if res.Err != nil {
			out = append(out, res.Source)
		}
	}
	return out
}

// fetcher pulls one source's files from the (emulated) live Internet.
type fetcher struct {
	source string
	fetch  func(w *worldgen.World) (map[string][]byte, error)
}

// fetchers enumerates every source in Sources order.
var fetchers = []fetcher{
	{"naturalearth", func(w *worldgen.World) (map[string][]byte, error) {
		ne := naturalearth.Export(w)
		return map[string][]byte{"places.csv": ne.PlacesCSV, "roads.csv": ne.RoadsCSV}, nil
	}},
	{"atlas", func(w *worldgen.World) (map[string][]byte, error) {
		at := atlas.Export(w)
		return map[string][]byte{"nodes.csv": at.NodesCSV, "links.csv": at.LinksCSV}, nil
	}},
	{"peeringdb", func(w *worldgen.World) (map[string][]byte, error) {
		raw, err := peeringdb.Marshal(peeringdb.Export(w))
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"dump.json": raw}, nil
	}},
	{"telegeography", func(w *worldgen.World) (map[string][]byte, error) {
		raw, err := telegeography.Marshal(telegeography.Export(w))
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"cables.json": raw}, nil
	}},
	{"pch", func(w *worldgen.World) (map[string][]byte, error) {
		return map[string][]byte{"ixpdir.tsv": pch.Export(w), "asn_orgs.tsv": pch.ExportOrgs(w)}, nil
	}},
	{"he", func(w *worldgen.World) (map[string][]byte, error) {
		return map[string][]byte{"exchanges.txt": he.Export(w)}, nil
	}},
	{"euroix", func(w *worldgen.World) (map[string][]byte, error) {
		raw, err := euroix.Marshal(euroix.Export(w))
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"ixps.json": raw}, nil
	}},
	{"rdns", func(w *worldgen.World) (map[string][]byte, error) {
		return map[string][]byte{"ptr.tsv": rdns.Export(w)}, nil
	}},
	{"asrank", func(w *worldgen.World) (map[string][]byte, error) {
		ar, err := asrank.Export(w)
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"asns.jsonl": ar.ASNsJSONL, "links.txt": ar.LinksTxt}, nil
	}},
	{"routeviews", func(w *worldgen.World) (map[string][]byte, error) {
		return map[string][]byte{"pfx2as.tsv": routeviews.Export(w)}, nil
	}},
	{"ripeatlas", func(w *worldgen.World) (map[string][]byte, error) {
		ra, err := ripeatlas.Export(w)
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"anchors.json": ra.AnchorsJSON, "measurements.jsonl": ra.MeasurementsJSONL}, nil
	}},
}

// Collect pulls a fresh snapshot of every source from the (emulated) live
// Internet and saves it with the given acquisition time. It is CollectWith
// under default options: 3 attempts per source, exponential backoff, abort
// on the first source that exhausts its budget.
func Collect(w *worldgen.World, store *Store, asOf time.Time) error {
	_, err := CollectWith(context.Background(), w, store, asOf, CollectOptions{})
	return err
}

// CollectWith pulls every source under the given fault-tolerance options.
// Each source gets its own attempt budget; transient errors back off with
// jittered exponential delay and retry, permanent (parse/marshal) errors
// fail the source immediately. Cancelling ctx aborts the collection at the
// next backoff wait or source boundary. The returned report always covers
// every attempted source, even when an error is also returned.
func CollectWith(ctx context.Context, w *worldgen.World, store *Store, asOf time.Time, opts CollectOptions) (*CollectReport, error) {
	opts.fillDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	report := &CollectReport{}
	var firstErr error
	for _, f := range fetchers {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("ingest: %w", err)
			}
			return report, firstErr
		}
		res := SourceResult{Source: f.source}
		var files map[string][]byte
		for attempt := 1; attempt <= opts.MaxAttempts; attempt++ {
			res.Attempts = attempt
			var err error
			if opts.Intercept != nil {
				err = opts.Intercept(f.source, attempt)
			}
			if err == nil {
				files, err = f.fetch(w)
			}
			if err == nil {
				res.Err = nil
				break
			}
			res.Err = err
			if !IsTransient(err) {
				opts.Logger.Warn("permanent collection error, not retrying",
					obs.F("source", f.source), obs.F("err", err))
				break
			}
			if attempt == opts.MaxAttempts {
				opts.Logger.Error("collection attempt budget exhausted",
					obs.F("source", f.source), obs.F("attempts", opts.MaxAttempts), obs.F("err", err))
				break
			}
			delay := Backoff(opts.BaseBackoff, opts.MaxBackoff, attempt, rng)
			retriesTotal.Add(1)
			opts.Logger.Warn("collection attempt failed, retrying",
				obs.F("source", f.source), obs.F("attempt", attempt),
				obs.F("max_attempts", opts.MaxAttempts), obs.F("err", err),
				obs.F("backoff", delay))
			if opts.Sleep != nil {
				opts.Sleep(delay)
			} else if err := SleepContext(ctx, delay); err != nil {
				res.Err = fmt.Errorf("backoff interrupted: %w", err)
				break
			}
		}
		if res.Err == nil {
			if err := store.Save(Snapshot{Source: f.source, AsOf: asOf, Files: files}); err != nil {
				res.Err = fmt.Errorf("save: %w", err)
			}
		}
		report.Results = append(report.Results, res)
		if res.Err != nil {
			wrapped := fmt.Errorf("ingest: %s: %w", f.source, res.Err)
			if !opts.ContinueOnError {
				return report, wrapped
			}
			if firstErr == nil {
				firstErr = wrapped
			}
		}
	}
	return report, firstErr
}

// SleepContext waits d or until ctx is cancelled, whichever comes first,
// and returns ctx.Err() when the wait was cut short. Retry loops use it so
// a cancelled caller never sits out a backoff.
func SleepContext(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Backoff computes the delay before retry #attempt: base doubled per
// attempt, capped, then jittered to 50–150% so a fleet of collectors or
// followers does not retry in lockstep. The collector and the replication
// fetcher both retry under it, each with its own base and cap.
func Backoff(base, cap time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base << (attempt - 1)
	if d > cap || d <= 0 {
		d = cap
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}
