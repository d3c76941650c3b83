package replicate

import (
	"time"

	"igdb/internal/ingest"
	"igdb/internal/reldb"
)

// Artifact is one snapshot rendered for replication: the manifest plus its
// chunks, keyed by content hash. It is built once per snapshot and is
// immutable afterwards, so the leader can serve it lock-free for the
// snapshot's whole lifetime.
type Artifact struct {
	Manifest     Manifest
	ManifestJSON []byte
	chunks       map[string][]byte // content hash -> bytes
}

// BuildArtifact encodes every relation of a built database — plus the raw
// measurement-source files followers need for the paths pipeline — into a
// content-addressed artifact. store may be nil or missing sources; the
// artifact then simply carries no source chunks and followers serve /path
// degraded, which is exactly how a degraded leader behaves.
func BuildArtifact(db *reldb.DB, store ingest.Reader, seq uint64, builtAt, asOf time.Time) (*Artifact, error) {
	a := &Artifact{
		Manifest: Manifest{
			FormatVersion: FormatVersion,
			Seq:           seq,
			BuiltAt:       builtAt,
			AsOf:          asOf,
		},
		chunks: make(map[string][]byte),
	}
	for _, name := range db.TableNames() {
		t := db.Table(name)
		data := reldb.EncodeTable(t)
		a.add(ChunkRef{Kind: KindRelation, Name: name, Rows: t.Len()}, data)
	}
	if store != nil {
		for _, src := range PipelineSources {
			snap, err := store.Latest(src, asOf)
			if err != nil {
				// Missing measurement source: the pipeline will be degraded
				// on the follower just as it is on the leader.
				continue
			}
			for file, data := range snap.Files {
				a.add(ChunkRef{Kind: KindSource, Name: src, File: file, SourceAsOf: snap.AsOf}, data)
			}
		}
	}
	mj, err := a.Manifest.EncodeJSON()
	if err != nil {
		return nil, err
	}
	a.ManifestJSON = mj
	return a, nil
}

// add registers one chunk under its content hash.
func (a *Artifact) add(ref ChunkRef, data []byte) {
	ref.SHA256 = HashChunk(data)
	ref.Bytes = len(data)
	a.chunks[ref.SHA256] = data
	a.Manifest.Chunks = append(a.Manifest.Chunks, ref)
	a.Manifest.TotalBytes += int64(len(data))
}

// Chunk returns the bytes addressed by a hex SHA-256, if present.
func (a *Artifact) Chunk(hash string) ([]byte, bool) {
	data, ok := a.chunks[hash]
	return data, ok
}
