package replicate

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/obs"
	"igdb/internal/reldb"
)

// maxChunkBytes bounds one chunk read so a corrupt manifest or hostile
// leader cannot balloon follower memory (64 MiB is ~30x the paper-scale
// artifact).
const maxChunkBytes = 64 << 20

// maxManifestBytes bounds the manifest document itself.
const maxManifestBytes = 8 << 20

// Fetcher pulls snapshot artifacts from a leader. The zero value is not
// usable; fill LeaderURL. Retry semantics reuse the ingest.Transient
// taxonomy: network failures, 5xx responses, and checksum mismatches are
// transient (the next attempt may see clean bytes); missing chunks are
// permanent for the manifest in hand, because the leader has moved on to a
// newer snapshot and re-polling the manifest is the fix.
type Fetcher struct {
	// LeaderURL is the leader's base URL (no trailing slash).
	LeaderURL string
	// Client is the HTTP client; tests wire chaos.NewTransport into it.
	// Nil means a client with a 30s timeout.
	Client *http.Client
	// MaxAttempts bounds tries per chunk (<=0 means 3).
	MaxAttempts int
	// BaseBackoff is the first retry delay, doubling per attempt
	// (<=0 means 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubled delay (<=0 means 2s).
	MaxBackoff time.Duration
	// Seed drives backoff jitter, so tests are reproducible.
	Seed int64
	// Sleep replaces the backoff wait between attempts (tests). When nil
	// the wait ends early if the fetch's context is cancelled.
	Sleep func(time.Duration)
	// Logger receives structured retry records; nil is silent.
	Logger *obs.Logger
}

func (f *Fetcher) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (f *Fetcher) attempts() int {
	if f.MaxAttempts > 0 {
		return f.MaxAttempts
	}
	return 3
}

// Payload is one fully verified snapshot transfer: the reconstructed
// database, the measurement-source snapshots for the paths pipeline, and
// transfer accounting.
type Payload struct {
	Manifest *Manifest
	// DB holds every replicated relation, schema-complete and indexed.
	DB *reldb.DB
	// Sources is an in-memory store of the replicated measurement
	// snapshots (empty when the leader shipped none).
	Sources *ingest.Store
	// Bytes is the total chunk bytes fetched; ChunkRetries counts
	// per-chunk retry sleeps.
	Bytes        int64
	ChunkRetries int
}

// Manifest fetches and validates the leader's current manifest.
func (f *Fetcher) Manifest(ctx context.Context) (*Manifest, error) {
	body, err := f.get(ctx, f.LeaderURL+ManifestPath, maxManifestBytes)
	if err != nil {
		return nil, err
	}
	return DecodeManifest(body)
}

// Fetch pulls and verifies every chunk of a manifest, reconstructing the
// database. Any failure — a chunk that exhausts its retry budget, a
// checksum that never matches, a chunk that will not decode — fails the
// whole transfer; the caller's current snapshot is untouched. On error the
// returned payload (when non-nil) carries only the transfer accounting
// (Bytes, ChunkRetries); its DB and Sources must not be served.
func (f *Fetcher) Fetch(ctx context.Context, m *Manifest) (*Payload, error) {
	p := &Payload{Manifest: m, DB: reldb.New(), Sources: ingest.NewStore("")}
	// The canonical schema first: tables and their indexes, so replicated
	// relations are just as queryable as built ones.
	for _, ddl := range core.SchemaDDL {
		if _, err := p.DB.Exec(ddl); err != nil {
			return nil, fmt.Errorf("replicate: schema: %v", err)
		}
	}
	srcFiles := make(map[string]map[string][]byte)
	srcAsOf := make(map[string]time.Time)
	for _, ref := range m.Chunks {
		data, retries, err := f.fetchChunk(ctx, ref)
		p.ChunkRetries += retries
		if err != nil {
			return p, err
		}
		p.Bytes += int64(len(data))
		switch ref.Kind {
		case KindRelation:
			if err := applyRelation(p.DB, ref, data); err != nil {
				return p, err
			}
		case KindSource:
			if srcFiles[ref.Name] == nil {
				srcFiles[ref.Name] = make(map[string][]byte)
			}
			srcFiles[ref.Name][ref.File] = data
			srcAsOf[ref.Name] = ref.SourceAsOf
		}
	}
	for src, files := range srcFiles {
		if err := p.Sources.Save(ingest.Snapshot{Source: src, AsOf: srcAsOf[src], Files: files}); err != nil {
			return p, fmt.Errorf("replicate: staging source %q: %v", src, err)
		}
	}
	return p, nil
}

// applyRelation decodes one verified relation chunk into the database. The
// chunk carries its own schema, so a relation unknown to this binary's
// SchemaDDL (version skew during a rolling upgrade) is created from the
// chunk; a known relation whose shape drifted is recreated — losing its
// indexes but never refusing data the leader serves.
func applyRelation(db *reldb.DB, ref ChunkRef, data []byte) error {
	dec, err := reldb.DecodeTable(data)
	if err != nil {
		return fmt.Errorf("replicate: chunk %s (%s): %v", ref.Name, ref.SHA256[:12], err)
	}
	if !strings.EqualFold(dec.Name, ref.Name) {
		return fmt.Errorf("replicate: chunk %s decodes as table %q", ref.Name, dec.Name)
	}
	if len(dec.Rows) != ref.Rows {
		return fmt.Errorf("replicate: chunk %s: %d rows, manifest says %d", ref.Name, len(dec.Rows), ref.Rows)
	}
	if t := db.Table(dec.Name); t == nil || !sameShape(t, dec) {
		if t != nil {
			if _, err := db.Exec("DROP TABLE " + dec.Name); err != nil {
				return fmt.Errorf("replicate: reshaping %s: %v", dec.Name, err)
			}
		}
		if _, err := db.Exec(dec.CreateTableDDL()); err != nil {
			return fmt.Errorf("replicate: creating %s: %v", dec.Name, err)
		}
	}
	if err := db.BulkInsert(dec.Name, dec.Rows); err != nil {
		return fmt.Errorf("replicate: loading %s: %v", dec.Name, err)
	}
	return nil
}

// sameShape reports whether the live table's schema matches the decoded
// chunk's, column for column.
func sameShape(t *reldb.Table, dec *reldb.DecodedTable) bool {
	if len(t.Cols) != len(dec.Cols) {
		return false
	}
	for i, c := range t.Cols {
		if !strings.EqualFold(c.Name, dec.Cols[i].Name) || c.Type != dec.Cols[i].Type {
			return false
		}
	}
	return true
}

// fetchChunk downloads one chunk with per-chunk retry and jittered
// exponential backoff, verifying the content hash on every attempt. It
// also reports how many retries were spent.
func (f *Fetcher) fetchChunk(ctx context.Context, ref ChunkRef) ([]byte, int, error) {
	rng := rand.New(rand.NewSource(f.Seed ^ int64(len(ref.SHA256))*31 ^ int64(ref.Bytes)))
	attempts := f.attempts()
	base, ceil := f.BaseBackoff, f.MaxBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 2 * time.Second
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		data, err := f.get(ctx, f.LeaderURL+ChunkPathPrefix+ref.SHA256, maxChunkBytes)
		if err == nil {
			if got := HashChunk(data); got != ref.SHA256 {
				err = ingest.Transient(fmt.Errorf("replicate: chunk %s (%s): checksum mismatch (got %s)",
					ref.Name, ref.SHA256[:12], got[:12]))
			} else {
				return data, attempt - 1, nil
			}
		}
		lastErr = err
		if !ingest.IsTransient(err) || attempt == attempts || ctx.Err() != nil {
			return nil, attempt - 1, fmt.Errorf("replicate: chunk %s (%s): %w", ref.Name, ref.SHA256[:12], lastErr)
		}
		delay := ingest.Backoff(base, ceil, attempt, rng)
		f.Logger.Warn("chunk fetch failed, retrying",
			obs.F("chunk", ref.Name), obs.F("attempt", attempt),
			obs.F("backoff", delay), obs.F("err", err))
		if f.Sleep != nil {
			f.Sleep(delay)
		} else if err := ingest.SleepContext(ctx, delay); err != nil {
			return nil, attempt - 1, fmt.Errorf("replicate: chunk %s (%s): backoff interrupted: %w", ref.Name, ref.SHA256[:12], err)
		}
	}
	return nil, attempts - 1, fmt.Errorf("replicate: chunk %s (%s): %w", ref.Name, ref.SHA256[:12], lastErr)
}

// get performs one bounded GET. Network failures and 5xx responses are
// transient; a 404 is permanent — on the chunk path it means the leader
// rotated to a newer snapshot, and the cure is a fresh manifest, not a
// retry of this URL.
func (f *Fetcher) get(ctx context.Context, url string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return nil, ingest.Transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a little so the connection can be reused, then classify.
		//lint:ignore errdrop the status code is the signal; the body is best-effort drain
		_, _ = io.CopyN(io.Discard, resp.Body, 4096)
		err := fmt.Errorf("replicate: GET %s: %s", url, resp.Status)
		if resp.StatusCode >= 500 {
			return nil, ingest.Transient(err)
		}
		return nil, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, ingest.Transient(fmt.Errorf("replicate: reading %s: %v", url, err))
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("replicate: %s exceeds the %d-byte limit", url, limit)
	}
	return body, nil
}
