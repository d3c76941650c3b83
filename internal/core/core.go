// Package core implements iGDB proper: the cross-layer Internet database
// the paper describes in §3. It consumes timestamped snapshots from the
// ingest store, standardizes every physical location onto the Thiessen
// tessellation of urban areas (§3.1), infers terrestrial standard paths
// along transportation rights-of-way, loads the logical layer keyed by ASN
// (§3.2), and bridges the two through the asn_loc relation (§3.3).
//
// The resulting relations (Figure 2 of the paper) live in an embedded
// reldb SQL database so every use-case analysis is a self-contained query.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"strings"
	"time"

	"igdb/internal/geo"
	"igdb/internal/ingest"
	"igdb/internal/obs"
	"igdb/internal/reldb"
	"igdb/internal/spatial"
	"igdb/internal/voronoi"
)

// StandardCity is one entry of the urban-area gazetteer that anchors both
// layers. Index in IGDB.Cities is the canonical city id used by the spatial
// structures; SQL rows reference cities by (metro, state, country) strings,
// exactly as the paper's schema does.
type StandardCity struct {
	Name       string
	State      string
	Country    string
	Loc        geo.Point
	Population int
}

// Key renders the unique (metro, state, country) label.
func (c StandardCity) Key() string {
	return c.Name + "|" + c.State + "|" + c.Country
}

// Metro renders the paper's "City-CC" metro label (Table 3 style).
func (c StandardCity) Metro() string { return c.Name + "-" + c.Country }

// IGDB is a built cross-layer database. Once a server publishes it behind
// an atomic pointer it is shared by every request goroutine without
// locking, so nothing reachable from it may be written after that swap.
// The race detector checks this wherever a test drives the code: the
// server's TestConcurrentRoutes runs every route concurrently, and its
// replication test reads all of each snapshot it publishes while the
// publisher is still running.
type IGDB struct {
	Rel    *reldb.DB
	Cities []StandardCity
	// Diagram is the Thiessen tessellation over Cities (nil when
	// BuildOptions.SkipPolygons).
	Diagram *voronoi.Diagram
	// Row is the right-of-way network used for standard-path inference.
	Row *RowNetwork
	// Paths is the inferred-physical-path network (nodes are cities, edges
	// are standard paths); the substrate for "shortest practical physical
	// path" analyses (§4.2).
	Paths *PathNetwork
	AsOf  time.Time
	// SourceStatus records per-source provenance: what loaded, what was
	// quarantined and why. Mirrors the source_status relation.
	SourceStatus []SourceStatus
	// BuildTrace is the span tree Build recorded: per-source loads, the
	// Voronoi/Thiessen standardization join, relation construction, and
	// path inference. Nil only with BuildOptions.SkipTrace. Mirrors the
	// build_trace relation.
	BuildTrace *obs.Span

	tree    *spatial.KDTree
	cityIdx map[string]int
	// span is the currently executing loader's span; loaders use it for
	// sub-stage spans (gazetteer, voronoi, right_of_way).
	span *obs.Span
	// pendingAdjacencies holds the standardized Atlas PoP adjacencies
	// between loadAtlas and inferStandardPaths.
	pendingAdjacencies [][2]int
}

// BuildOptions controls the build.
type BuildOptions struct {
	// AsOf selects snapshots at-or-before this instant; zero = newest.
	AsOf time.Time
	// SkipPolygons disables city_polygons/Diagram construction (the
	// nearest-neighbour join does not need them; they exist for analysis
	// and rendering).
	SkipPolygons bool
	// MaxStandardPaths caps right-of-way inference (0 = unlimited); useful
	// for quick interactive builds.
	MaxStandardPaths int
	// Degraded keeps building when a source is corrupt, missing, or
	// stale: the offending source is quarantined (recorded in the
	// source_status relation with its error) and the database is
	// assembled from whatever loaded cleanly. The default (strict) mode
	// fails the whole build on the first bad source, naming it.
	Degraded bool
	// StaleAfter quarantines (degraded) or rejects (strict) any source
	// whose snapshot is older than the reference time — AsOf when set,
	// otherwise the newest snapshot in the store — by more than this.
	// Zero disables staleness checks.
	StaleAfter time.Duration
	// Trace, when set, is the parent span under which Build records its
	// stage spans (Build starts and ends a "build" child). When nil Build
	// starts its own root trace, so the build_trace relation is always
	// populated unless SkipTrace is set.
	Trace *obs.Span
	// SkipTrace disables span recording entirely: no BuildTrace, an empty
	// build_trace relation. The untraced baseline for overhead benchmarks.
	SkipTrace bool
	// Logger receives structured build diagnostics (quarantine events).
	// Nil is silent.
	Logger *obs.Logger
}

// Source status values recorded in the source_status relation.
const (
	StatusOK          = "ok"          // loaded cleanly
	StatusCorrupt     = "corrupt"     // snapshot present but failed to parse/validate
	StatusMissing     = "missing"     // no snapshot in the store
	StatusStale       = "stale"       // snapshot older than BuildOptions.StaleAfter
	StatusQuarantined = "quarantined" // read failed transiently or the loader panicked
)

// SourceStatus is one source's build outcome — the provenance row behind
// the source_status relation.
type SourceStatus struct {
	Source     string
	AsOf       time.Time     // snapshot acquisition time (zero when missing)
	Status     string        // one of the Status* constants
	Err        string        // failure detail ("" when ok)
	RowsLoaded int           // rows this source contributed across all relations
	LoadTime   time.Duration // wall time the loader spent on this source
}

// Degraded reports whether any source failed to load cleanly.
func (g *IGDB) Degraded() bool {
	for _, st := range g.SourceStatus {
		if st.Status != StatusOK {
			return true
		}
	}
	return false
}

// QuarantinedSources lists the sources that did not load cleanly.
func (g *IGDB) QuarantinedSources() []string {
	var out []string
	for _, st := range g.SourceStatus {
		if st.Status != StatusOK {
			out = append(out, st.Source)
		}
	}
	return out
}

// Standardize maps any coordinate to its closest urban area, returning the
// city index. This is the spatial join at the heart of §3.1.
func (g *IGDB) Standardize(p geo.Point) int {
	e, _, ok := g.tree.Nearest(p)
	if !ok {
		return -1
	}
	return e.ID
}

// CityByName resolves a city label (case-insensitive, optionally with
// state/country) to an index, or -1. Ambiguous bare names resolve to the
// most populous match, mirroring how name-only sources (PCH, HE) are
// matched.
func (g *IGDB) CityByName(name, state, country string) int {
	name = strings.TrimSpace(name)
	best, bestPop := -1, -1
	for i, c := range g.Cities {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if state != "" && !strings.EqualFold(c.State, state) {
			continue
		}
		if country != "" && !strings.EqualFold(c.Country, country) {
			continue
		}
		if c.Population > bestPop {
			best, bestPop = i, c.Population
		}
	}
	return best
}

// CityIndex resolves an exact (metro, state, country) triple to an index.
func (g *IGDB) CityIndex(name, state, country string) int {
	if i, ok := g.cityIdx[name+"|"+state+"|"+country]; ok {
		return i
	}
	return -1
}

// loaderSpec binds one ingest source to the function that loads it. Every
// source in ingest.Sources has exactly one spec, so fault isolation,
// provenance, and quarantine are uniform across the pipeline.
type loaderSpec struct {
	source string
	fn     func(*IGDB, ingest.Reader, BuildOptions) error
}

// loaders enumerates the per-source build steps in dependency order: the
// gazetteer and right-of-way layers first (everything standardizes against
// them), then the physical and logical sources, then validation-only
// sources consumed downstream (routeviews feeds bdrmap in internal/paths).
var loaders = []loaderSpec{
	{"naturalearth", func(g *IGDB, s ingest.Reader, o BuildOptions) error {
		if err := g.loadCities(s, o); err != nil {
			return err
		}
		return g.loadRightOfWay(s, o)
	}},
	{"atlas", (*IGDB).loadAtlas},
	{"peeringdb", (*IGDB).loadPeeringDB},
	{"telegeography", (*IGDB).loadTelegeography},
	{"pch", (*IGDB).loadPCH},
	{"he", (*IGDB).loadHE},
	{"euroix", (*IGDB).loadEuroIX},
	{"rdns", (*IGDB).loadRDNS},
	{"asrank", (*IGDB).loadASRank},
	{"routeviews", (*IGDB).validateRouteViews},
	{"ripeatlas", (*IGDB).loadAnchors},
}

// Build constructs the database from the snapshot store.
//
// In strict mode (the default) the first corrupt, missing, or stale source
// aborts the build with an error naming it. With opts.Degraded the failing
// source is quarantined instead: its loader's partial contribution (if any)
// stays, the rest of the pipeline proceeds, and the outcome is recorded in
// g.SourceStatus and the source_status relation so operators can query
// exactly which sources the database was built without.
func Build(store ingest.Reader, opts BuildOptions) (*IGDB, error) {
	var root *obs.Span
	if !opts.SkipTrace {
		if opts.Trace != nil {
			root = opts.Trace.Start("build")
		} else {
			root = obs.StartTrace("build")
		}
	}
	g := &IGDB{
		Rel:        reldb.New(),
		AsOf:       opts.AsOf,
		BuildTrace: root,
		cityIdx:    make(map[string]int),
		// An empty tree keeps Standardize total even when the gazetteer
		// itself is quarantined in degraded mode.
		tree: spatial.NewKDTree(nil),
	}
	sp := root.Start("schema")
	if err := g.createSchema(); err != nil {
		return nil, err
	}
	g.registerSQLFunctions()
	endStage(sp)

	staleRef := staleReference(store, opts)
	for _, l := range loaders {
		st, err := g.runLoader(store, opts, l, staleRef, root)
		if err != nil && !opts.Degraded {
			return nil, fmt.Errorf("core: %s: %w", l.source, err)
		}
		if err != nil {
			opts.Logger.Warn("source quarantined",
				obs.F("source", st.Source), obs.F("status", st.Status), obs.F("err", st.Err))
		}
		g.SourceStatus = append(g.SourceStatus, st)
	}
	sp = root.Start("source_status")
	if err := g.storeSourceStatus(); err != nil {
		return nil, err
	}
	endStage(sp)
	sp = root.Start("infer_standard_paths")
	if err := g.inferStandardPaths(opts); err != nil {
		return nil, err
	}
	sp.SetAttr("paths", g.Rel.Table("std_paths").Len())
	endStage(sp)
	sp = root.Start("path_network")
	g.Paths = g.buildPathNetwork()
	sp.SetAttr("edges", len(g.Paths.geoms))
	endStage(sp)
	root.End()
	if err := g.storeBuildTrace(); err != nil {
		return nil, err
	}
	return g, nil
}

// endStage ends a build stage's span with the heap in use at its end as
// heap_mb (runtime/metrics' bytes in live and unswept heap objects), so
// build_trace shows each stage's memory beside its wall time.
func endStage(sp *obs.Span) {
	if sp != nil {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(sample)
		sp.SetAttr("heap_mb", math.Round(float64(sample[0].Value.Uint64())/(1<<20)*10)/10)
	}
	sp.End()
}

// runLoader executes one source's loader under fault isolation: the
// snapshot is classified first (missing / transient / stale), the loader
// runs with panic capture under its own span, and the outcome is summarized
// as a SourceStatus.
func (g *IGDB) runLoader(store ingest.Reader, opts BuildOptions, l loaderSpec, staleRef time.Time, parent *obs.Span) (st SourceStatus, err error) {
	// Named returns: the deferred summary below must mutate the st the
	// caller receives, not a copy.
	st = SourceStatus{Source: l.source, Status: StatusOK}
	t0 := time.Now()
	sp := parent.Start("load/" + l.source)
	defer func() {
		st.LoadTime = time.Since(t0)
		sp.SetAttr("rows", st.RowsLoaded)
		sp.SetAttr("status", st.Status)
		if st.Err != "" {
			sp.SetAttr("err", st.Err)
		}
		endStage(sp)
	}()
	snap, err := store.Latest(l.source, opts.AsOf)
	if err != nil {
		st.Status, st.Err = classifyError(err)
		return st, err
	}
	st.AsOf = snap.AsOf
	bytes := 0
	for _, data := range snap.Files {
		bytes += len(data)
	}
	sp.SetAttr("bytes", bytes)
	if opts.StaleAfter > 0 && !staleRef.IsZero() && staleRef.Sub(snap.AsOf) > opts.StaleAfter {
		st.Status = StatusStale
		st.Err = fmt.Sprintf("snapshot from %s is older than %s (reference %s)",
			snap.AsOf.UTC().Format(time.RFC3339), opts.StaleAfter, staleRef.UTC().Format(time.RFC3339))
		return st, errors.New(st.Err)
	}
	before := g.totalRows()
	g.span = sp
	err = func() (err error) {
		defer func() {
			g.span = nil
			if r := recover(); r != nil {
				err = &panicError{fmt.Errorf("loader panicked: %v", r)}
			}
		}()
		return l.fn(g, store, opts)
	}()
	st.RowsLoaded = g.totalRows() - before
	if err != nil {
		st.Status, st.Err = classifyError(err)
		return st, err
	}
	return st, nil
}

// panicError marks a loader failure that came from a captured panic.
type panicError struct{ err error }

func (e *panicError) Error() string { return e.err.Error() }
func (e *panicError) Unwrap() error { return e.err }

// classifyError maps a loader failure to a source_status value.
func classifyError(err error) (status, detail string) {
	var pe *panicError
	switch {
	case errors.Is(err, ingest.ErrNoSnapshot):
		return StatusMissing, err.Error()
	case ingest.IsTransient(err), errors.As(err, &pe):
		return StatusQuarantined, err.Error()
	default:
		return StatusCorrupt, err.Error()
	}
}

// staleReference picks the instant staleness is measured against: AsOf
// when pinned, otherwise the newest snapshot timestamp in the store.
func staleReference(store ingest.Reader, opts BuildOptions) time.Time {
	if !opts.AsOf.IsZero() {
		return opts.AsOf
	}
	var ref time.Time
	for _, src := range ingest.Sources {
		for _, t := range store.Versions(src) {
			if t.After(ref) {
				ref = t
			}
		}
	}
	return ref
}

// totalRows sums every relation's cardinality (for per-source provenance).
func (g *IGDB) totalRows() int {
	n := 0
	for _, name := range g.Rel.TableNames() {
		n += g.Rel.Table(name).Len()
	}
	return n
}

// storeSourceStatus persists g.SourceStatus into the source_status
// relation, making degradation queryable via SQL.
func (g *IGDB) storeSourceStatus() error {
	rows := make([][]reldb.Value, 0, len(g.SourceStatus))
	for _, st := range g.SourceStatus {
		asOf := ""
		if !st.AsOf.IsZero() {
			asOf = asOfText(st.AsOf)
		}
		rows = append(rows, []reldb.Value{
			reldb.Text(st.Source), reldb.Text(st.Status), reldb.Text(st.Err),
			reldb.Int(int64(st.RowsLoaded)),
			reldb.Float(float64(st.LoadTime) / float64(time.Millisecond)),
			reldb.Text(asOf),
		})
	}
	return g.Rel.BulkInsert("source_status", rows)
}

// storeBuildTrace persists the span tree into the build_trace relation —
// one row per stage, so the last build's timings are queryable with plain
// SQL, exactly like source_status makes degradation queryable.
func (g *IGDB) storeBuildTrace() error {
	if g.BuildTrace == nil {
		return nil
	}
	infos := g.BuildTrace.Flatten()
	rows := make([][]reldb.Value, 0, len(infos))
	for _, si := range infos {
		rows = append(rows, []reldb.Value{
			reldb.Text(si.Name), reldb.Text(si.Parent), reldb.Int(int64(si.Depth)),
			reldb.Float(si.StartMs), reldb.Float(si.DurationMs),
			reldb.Text(obs.FormatFields(si.Attrs)),
		})
	}
	return g.Rel.BulkInsert("build_trace", rows)
}

// createSchema executes SchemaDDL (see schema.go), creating every Figure 2
// relation plus the operational ones.
func (g *IGDB) createSchema() error {
	for _, s := range SchemaDDL {
		if _, err := g.Rel.Exec(s); err != nil {
			return fmt.Errorf("core: schema: %w", err)
		}
	}
	return nil
}

// registerSQLFunctions installs geographic helpers usable from SQL.
func (g *IGDB) registerSQLFunctions() {
	g.Rel.RegisterFunc("GEO_DIST", func(args []reldb.Value) (reldb.Value, error) {
		if len(args) != 4 {
			return reldb.Null, fmt.Errorf("GEO_DIST(lon1,lat1,lon2,lat2) takes 4 arguments")
		}
		var f [4]float64
		for i, a := range args {
			v, ok := a.AsFloat()
			if !ok {
				return reldb.Null, nil
			}
			f[i] = v
		}
		d := geo.Haversine(geo.Point{Lon: f[0], Lat: f[1]}, geo.Point{Lon: f[2], Lat: f[3]})
		return reldb.Float(d), nil
	})
	g.Rel.RegisterFunc("METRO_DIST", func(args []reldb.Value) (reldb.Value, error) {
		if len(args) != 2 {
			return reldb.Null, fmt.Errorf("METRO_DIST(metroA, metroB) takes 2 arguments")
		}
		a, _ := args[0].AsText()
		b, _ := args[1].AsText()
		ia, ib := g.metroIndex(a), g.metroIndex(b)
		if ia < 0 || ib < 0 {
			return reldb.Null, nil
		}
		return reldb.Float(geo.Haversine(g.Cities[ia].Loc, g.Cities[ib].Loc)), nil
	})
}

// metroIndex resolves a "City-CC" metro label to a city index.
func (g *IGDB) metroIndex(metro string) int {
	dash := strings.LastIndexByte(metro, '-')
	if dash < 0 {
		return g.CityByName(metro, "", "")
	}
	return g.CityByName(metro[:dash], "", metro[dash+1:])
}

// MetroIndex resolves a "City-CC" metro label to a city index, or -1.
func (g *IGDB) MetroIndex(metro string) int { return g.metroIndex(metro) }

// CityLoc returns the coordinates of city index i.
func (g *IGDB) CityLoc(i int) geo.Point { return g.Cities[i].Loc }

func asOfText(t time.Time) string {
	return t.UTC().Format("2006-01-02")
}
