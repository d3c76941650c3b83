package replicate

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/leakgate"
	"igdb/internal/worldgen"
)

// TestMain fails the package when its tests leave goroutines running
// its code.
func TestMain(m *testing.M) { leakgate.Main(m, "igdb/internal/replicate") }

var (
	fixtureOnce  sync.Once
	fixtureG     *core.IGDB
	fixtureStore *ingest.Store
)

// fixture builds one small world and its snapshot store, shared across the
// package's tests (the build is pure, so sharing is safe).
func fixture(t *testing.T) (*core.IGDB, *ingest.Store) {
	t.Helper()
	fixtureOnce.Do(func() {
		w := worldgen.Generate(worldgen.SmallConfig())
		store := ingest.NewStore("")
		if err := ingest.Collect(w, store, time.Unix(1780000000, 0).UTC()); err != nil {
			panic(err)
		}
		g, err := core.Build(store, core.BuildOptions{})
		if err != nil {
			panic(err)
		}
		fixtureG, fixtureStore = g, store
	})
	return fixtureG, fixtureStore
}

func buildFixtureArtifact(t *testing.T) *Artifact {
	t.Helper()
	g, store := fixture(t)
	a, err := BuildArtifact(g.Rel, store, 3, time.Unix(1780000100, 0).UTC(), g.AsOf)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// closeCheckedClient returns an HTTP client whose transport counts the
// response bodies it returns and the ones closed. At cleanup it fails t
// if any body is still open: an unclosed body pins its connection.
func closeCheckedClient(t *testing.T) *http.Client {
	tr := &bodyCounter{base: http.DefaultTransport.(*http.Transport).Clone()}
	t.Cleanup(func() {
		tr.base.CloseIdleConnections()
		if open := tr.returned.Load() - tr.closed.Load(); open > 0 {
			t.Errorf("%d of %d response bodies were never closed", open, tr.returned.Load())
		}
	})
	return &http.Client{Transport: tr}
}

// bodyCounter is the RoundTripper behind closeCheckedClient.
type bodyCounter struct {
	base             *http.Transport
	returned, closed atomic.Int64
}

func (c *bodyCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c.returned.Add(1)
	resp.Body = &countedBody{ReadCloser: resp.Body, c: c}
	return resp, nil
}

// countedBody counts its first Close.
type countedBody struct {
	io.ReadCloser
	c    *bodyCounter
	once sync.Once
}

func (b *countedBody) Close() error {
	b.once.Do(func() { b.c.closed.Add(1) })
	return b.ReadCloser.Close()
}

// leader serves an artifact the way the real server does: manifest at
// ManifestPath, chunks by content hash under ChunkPathPrefix.
func leader(t *testing.T, a *Artifact) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(ManifestPath, func(w http.ResponseWriter, r *http.Request) {
		//lint:ignore errdrop test server write; the client side asserts
		_, _ = w.Write(a.ManifestJSON)
	})
	mux.HandleFunc(ChunkPathPrefix, func(w http.ResponseWriter, r *http.Request) {
		hash := strings.TrimPrefix(r.URL.Path, ChunkPathPrefix)
		data, ok := a.Chunk(hash)
		if !ok {
			http.NotFound(w, r)
			return
		}
		//lint:ignore errdrop test server write; the client side asserts
		_, _ = w.Write(data)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestManifestRoundTripAndValidation(t *testing.T) {
	a := buildFixtureArtifact(t)
	m, err := DecodeManifest(a.ManifestJSON)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 3 || len(m.Chunks) != len(a.Manifest.Chunks) || m.TotalBytes != a.Manifest.TotalBytes {
		t.Fatalf("round-trip drift: %+v", m)
	}

	bad := *m
	bad.FormatVersion = FormatVersion + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("future format version accepted")
	}
	bad = *m
	bad.Chunks = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty manifest accepted")
	}
	bad = *m
	bad.Chunks = append([]ChunkRef(nil), m.Chunks...)
	bad.Chunks[0].SHA256 = "abc"
	if err := bad.Validate(); err == nil {
		t.Fatal("short sha accepted")
	}
	bad = *m
	bad.Chunks = append([]ChunkRef(nil), m.Chunks...)
	bad.Chunks[0].Kind = "mystery"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown chunk kind accepted")
	}
	if _, err := DecodeManifest([]byte("{")); err == nil {
		t.Fatal("junk manifest accepted")
	}
}

func TestArtifactCoversTablesAndSources(t *testing.T) {
	g, _ := fixture(t)
	a := buildFixtureArtifact(t)
	rel := make(map[string]bool)
	srcs := make(map[string]bool)
	for _, c := range a.Manifest.Chunks {
		switch c.Kind {
		case KindRelation:
			rel[c.Name] = true
		case KindSource:
			srcs[c.Name] = true
		}
		if data, ok := a.Chunk(c.SHA256); !ok || HashChunk(data) != c.SHA256 || len(data) != c.Bytes {
			t.Fatalf("chunk %s/%s not addressable by its own hash", c.Kind, c.Name)
		}
	}
	for _, name := range g.Rel.TableNames() {
		if !rel[name] {
			t.Errorf("relation %s missing from artifact", name)
		}
	}
	for _, src := range PipelineSources {
		if !srcs[src] {
			t.Errorf("measurement source %s missing from artifact", src)
		}
	}
}

func TestFetchReconstructsSnapshot(t *testing.T) {
	g, _ := fixture(t)
	a := buildFixtureArtifact(t)
	srv := leader(t, a)
	f := &Fetcher{LeaderURL: srv.URL, Client: closeCheckedClient(t), Seed: 1}

	m, err := f.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Fetch(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bytes != m.TotalBytes || p.ChunkRetries != 0 {
		t.Fatalf("bytes=%d retries=%d, want %d and 0", p.Bytes, p.ChunkRetries, m.TotalBytes)
	}

	// The payload database must reconstruct a servable IGDB with the same
	// gazetteer, and the indexes from SchemaDDL must be present.
	r, err := core.FromRelations(p.DB, m.AsOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cities) != len(g.Cities) {
		t.Fatalf("cities = %d, want %d", len(r.Cities), len(g.Cities))
	}
	for _, name := range g.Rel.TableNames() {
		if got, want := p.DB.Table(name).Len(), g.Rel.Table(name).Len(); got != want {
			t.Errorf("%s: %d rows, want %d", name, got, want)
		}
	}

	// Replicated measurement sources are staged for the paths pipeline.
	for _, src := range PipelineSources {
		snap, err := p.Sources.Latest(src, time.Time{})
		if err != nil {
			t.Fatalf("source %s not staged: %v", src, err)
		}
		if len(snap.Files) == 0 {
			t.Fatalf("source %s staged with no files", src)
		}
	}
}

func TestFetchRetriesTransientFaults(t *testing.T) {
	a := buildFixtureArtifact(t)
	real := leader(t, a)

	// A flaky front: the first two hits on every chunk URL return 503.
	var mu sync.Mutex
	seen := make(map[string]int)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, ChunkPathPrefix) {
			mu.Lock()
			seen[r.URL.Path]++
			n := seen[r.URL.Path]
			mu.Unlock()
			if n <= 2 {
				http.Error(w, "try later", http.StatusServiceUnavailable)
				return
			}
		}
		resp, err := http.Get(real.URL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		//lint:ignore errdrop test proxy write; the client side asserts
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(flaky.Close)

	var slept []time.Duration
	f := &Fetcher{
		LeaderURL:   flaky.URL,
		Client:      closeCheckedClient(t),
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		Seed:        42,
	}
	m, err := f.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Fetch(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(m.Chunks); p.ChunkRetries != want {
		t.Fatalf("ChunkRetries = %d, want %d", p.ChunkRetries, want)
	}
	if len(slept) != p.ChunkRetries {
		t.Fatalf("slept %d times, want %d", len(slept), p.ChunkRetries)
	}
	for _, d := range slept {
		if d <= 0 || d > 2*time.Second {
			t.Fatalf("backoff %v out of range", d)
		}
	}
}

func TestFetchQuarantinesChecksumMismatch(t *testing.T) {
	a := buildFixtureArtifact(t)
	// Every chunk comes back corrupted — one flipped byte, same length.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ManifestPath {
			//lint:ignore errdrop test server write; the client side asserts
			_, _ = w.Write(a.ManifestJSON)
			return
		}
		hash := strings.TrimPrefix(r.URL.Path, ChunkPathPrefix)
		data, ok := a.Chunk(hash)
		if !ok {
			http.NotFound(w, r)
			return
		}
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0x40
		//lint:ignore errdrop test server write; the client side asserts
		_, _ = w.Write(bad)
	}))
	t.Cleanup(evil.Close)

	f := &Fetcher{
		LeaderURL:   evil.URL,
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		Sleep:       func(time.Duration) {},
		Seed:        42,
	}
	m, err := f.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Fetch(context.Background(), m)
	if err == nil {
		t.Fatal("corrupt transfer accepted")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("err = %v, want checksum mismatch", err)
	}
}

func TestFetchMissingChunkIsPermanent(t *testing.T) {
	a := buildFixtureArtifact(t)
	// The leader rotated: manifest still served, chunks all gone.
	rotated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ManifestPath {
			//lint:ignore errdrop test server write; the client side asserts
			_, _ = w.Write(a.ManifestJSON)
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(rotated.Close)

	slept := 0
	f := &Fetcher{
		LeaderURL:   rotated.URL,
		Client:      closeCheckedClient(t),
		MaxAttempts: 5,
		Sleep:       func(time.Duration) { slept++ },
		Seed:        42,
	}
	m, err := f.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch(context.Background(), m); err == nil {
		t.Fatal("fetch of rotated snapshot succeeded")
	}
	if slept != 0 {
		t.Fatalf("404 was retried %d times; it is permanent", slept)
	}
}

func TestFetchRejectsWrongRowCount(t *testing.T) {
	a := buildFixtureArtifact(t)
	srv := leader(t, a)
	f := &Fetcher{LeaderURL: srv.URL, Seed: 1}
	m, err := f.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Chunks {
		if m.Chunks[i].Kind == KindRelation && m.Chunks[i].Rows > 0 {
			m.Chunks[i].Rows++
			break
		}
	}
	if _, err := f.Fetch(context.Background(), m); err == nil {
		t.Fatal("row-count drift accepted")
	}
}

// TestFetchChunkObservesCancel: with no Sleep hook, cancelling the fetch's
// context must end it promptly with the context error, both while it waits
// out a long retry backoff after a 503 and while a request hangs.
func TestFetchChunkObservesCancel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler func(release <-chan struct{}) http.HandlerFunc
	}{
		{"backoff", func(<-chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		}},
		{"request", func(release <-chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-r.Context().Done():
				case <-release:
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			srv := httptest.NewServer(tc.handler(release))
			t.Cleanup(srv.Close)
			t.Cleanup(func() { close(release) })
			f := &Fetcher{LeaderURL: srv.URL, MaxAttempts: 3, BaseBackoff: 20 * time.Second, MaxBackoff: 20 * time.Second}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(50*time.Millisecond, cancel)
			start := time.Now()
			_, _, err := f.fetchChunk(ctx, ChunkRef{Name: "facts", SHA256: strings.Repeat("ab", 32)})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("fetchChunk returned %v after the cancel; want prompt", elapsed)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}
