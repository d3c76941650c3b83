// Package experiments reproduces every table and figure in the iGDB
// paper's evaluation (§4 + appendix). Each experiment runs the same
// analysis the paper describes — as SQL over the iGDB relations plus the
// measurement-fusion pipeline — against the synthetic world, and returns a
// Result whose rows mirror what the paper reports, with paper-vs-measured
// notes where the paper states concrete numbers.
package experiments

import (
	"fmt"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/paths"
	"igdb/internal/sources/ripeatlas"
	"igdb/internal/worldgen"
)

// Env is a fully built experimental environment: world, snapshots,
// database, and the measurement pipeline.
type Env struct {
	World *worldgen.World
	Store *ingest.Store
	G     *core.IGDB
	P     *paths.Pipeline
}

// NewEnv generates the world, collects all snapshots, builds iGDB and
// trains the pipeline.
func NewEnv(cfg worldgen.Config) (*Env, error) {
	w := worldgen.Generate(cfg)
	store := ingest.NewStore("")
	asOf := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	if err := ingest.Collect(w, store, asOf); err != nil {
		return nil, err
	}
	g, err := core.Build(store, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	p, err := paths.NewPipeline(g, store)
	if err != nil {
		return nil, err
	}
	if _, err := p.StoreIPASNDNS(); err != nil {
		return nil, err
	}
	return &Env{World: w, Store: store, G: g, P: p}, nil
}

// Result is one reproduced table or figure.
type Result struct {
	ID     string // "table1", "figure7", ...
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries paper-vs-measured commentary.
	Notes []string
	// Artifacts holds regenerated figure files (SVG/GeoJSON) by filename.
	Artifacts map[string][]byte
}

func (r *Result) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Result) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) artifact(name string, data []byte) {
	if r.Artifacts == nil {
		r.Artifacts = make(map[string][]byte)
	}
	r.Artifacts[name] = data
}

// Experiment is one table or figure: the ID its Result carries and the Env
// method that computes it.
type Experiment struct {
	ID  string
	Run func(*Env) Result
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", (*Env).Table1},
		{"table2", (*Env).Table2},
		{"table3", (*Env).Table3},
		{"figure3", (*Env).Figure3},
		{"figure4", (*Env).Figure4},
		{"figure5", (*Env).Figure5},
		{"figure6", (*Env).Figure6},
		{"figure7", (*Env).Figure7},
		{"figure8", (*Env).Figure8},
		{"figure9", (*Env).Figure9},
		{"figure10", (*Env).Figure10},
		{"section44", (*Env).Section44},
	}
}

// All runs every experiment in paper order.
func (e *Env) All() []Result {
	var out []Result
	for _, x := range Experiments() {
		out = append(out, x.Run(e))
	}
	return out
}

// measurementBetween finds the mesh measurement between two named metros.
func (e *Env) measurementBetween(src, dst string) (ripeatlas.Measurement, bool) {
	tr := e.World.FindTrace(src, dst)
	if tr == nil {
		return ripeatlas.Measurement{}, false
	}
	for _, m := range e.P.Measurements {
		if m.SrcAnchor == tr.SrcAnchor && m.DstAnchor == tr.DstAnchor {
			return m, true
		}
	}
	return ripeatlas.Measurement{}, false
}

// intCell formats an int.
func intCell(n int) string { return fmt.Sprintf("%d", n) }
