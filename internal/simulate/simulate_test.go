package simulate

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"igdb/internal/core"
	"igdb/internal/geo"
	"igdb/internal/ingest"
	"igdb/internal/leakgate"
	"igdb/internal/risk"
	"igdb/internal/worldgen"
)

// TestMain fails the package when its tests leave goroutines running
// its code.
func TestMain(m *testing.M) { leakgate.Main(m, "igdb/internal/simulate") }

// newDB builds a fresh database from the deterministic small world. Tests
// that Store results need their own instance; read-only tests share db().
func newDB(t testing.TB) *core.IGDB {
	t.Helper()
	w := worldgen.Generate(worldgen.SmallConfig())
	store := ingest.NewStore("")
	if err := ingest.Collect(w, store, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(store, core.BuildOptions{SkipPolygons: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var (
	once   sync.Once
	shared *core.IGDB
)

func db(t testing.TB) *core.IGDB {
	t.Helper()
	once.Do(func() { shared = newDB(t) })
	return shared
}

func newEngine(t testing.TB, g *core.IGDB, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGenerateDeterministic(t *testing.T) {
	g := db(t)
	a := newEngine(t, g, Options{Seed: 7}).Generate(50)
	b := newEngine(t, g, Options{Seed: 7}).Generate(50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different scenario streams")
	}
	c := newEngine(t, g, Options{Seed: 8}).Generate(50)
	same := true
	for i := range a {
		if a[i].Kind != c[i].Kind || a[i].Target != c[i].Target {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical scenario streams")
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	e := newEngine(t, db(t), Options{Seed: 3, Pairs: 64})
	sc := e.Generate(30)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := e.Run(sc)
	runtime.GOMAXPROCS(4)
	parallel := e.Run(sc)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("results differ between GOMAXPROCS 1 and 4")
	}
}

// The empty scenario is the identity: nothing fails, every pair survives at
// exactly its baseline distance, the component structure is unchanged.
func TestEvalIdentityScenario(t *testing.T) {
	e := newEngine(t, db(t), Options{Seed: 1, Pairs: 64})
	res := e.Run([]Scenario{{ID: 1, Kind: "noop", Target: "nothing"}})[0]
	if res.PairsLost != 0 || res.ReachabilityLoss != 0 {
		t.Fatalf("identity scenario lost %d pairs", res.PairsLost)
	}
	if res.MeanInflation != 1 || res.MaxInflation != 1 {
		t.Fatalf("identity inflation = %g/%g, want 1/1", res.MeanInflation, res.MaxInflation)
	}
	if res.Components != res.ComponentsBase {
		t.Fatalf("identity components = %d, base %d", res.Components, res.ComponentsBase)
	}
	if len(res.ASImpacts)+len(res.CountryImpacts)+len(res.MetroImpacts) != 0 {
		t.Fatal("identity scenario attributed impacts")
	}
}

func TestEvalMetroDown(t *testing.T) {
	e := newEngine(t, db(t), Options{Seed: 1, Pairs: 128})
	// Fail the sampled node with the most incident pairs so loss is certain.
	best, bestN := -1, 0
	for src, idxs := range e.bySrc {
		if len(idxs) > bestN {
			best, bestN = src, len(idxs)
		}
	}
	if best < 0 {
		t.Fatal("no sampled pairs")
	}
	sc := Scenario{ID: 1, Kind: KindMetroDown, Target: e.metroOf[best], Nodes: []int{best}}
	res := e.Run([]Scenario{sc})[0]
	if res.FailedNodes != 1 {
		t.Fatalf("FailedNodes = %d, want 1", res.FailedNodes)
	}
	if res.PairsLost < bestN {
		t.Fatalf("PairsLost = %d, want >= %d pairs incident to the failed metro", res.PairsLost, bestN)
	}
	found := false
	for _, im := range res.MetroImpacts {
		if im.Name == e.metroOf[best] {
			found = true
			if im.Rank != 1 {
				t.Errorf("failed metro ranked %d, want 1", im.Rank)
			}
		}
	}
	if !found {
		t.Fatalf("failed metro %s missing from impacts %v", e.metroOf[best], res.MetroImpacts)
	}
}

func TestEvalCableCut(t *testing.T) {
	e := newEngine(t, db(t), Options{Seed: 1, Pairs: 64})
	if len(e.cables) == 0 {
		t.Skip("world has no submarine cables")
	}
	name := e.cables[0]
	sc := Scenario{ID: 1, Kind: KindCableCut, Target: name, Edges: e.cableEdges[name]}
	res := e.Run([]Scenario{sc})[0]
	if res.FailedEdges != len(e.cableEdges[name]) {
		t.Fatalf("FailedEdges = %d, want %d", res.FailedEdges, len(e.cableEdges[name]))
	}
	if res.Components < res.ComponentsBase {
		t.Fatalf("cutting edges reduced components: %d < %d", res.Components, res.ComponentsBase)
	}
}

func TestEvalHazardResolves(t *testing.T) {
	e := newEngine(t, db(t), Options{Seed: 1, Pairs: 64})
	// Center a generous hazard on a failure-graph metro: at least that node
	// must fail.
	center := e.g.CityLoc(e.cityOf[0])
	sc := Scenario{
		ID: 1, Kind: KindHazard, Target: "test-hazard",
		Hazard: &risk.Hazard{Name: "test", Center: center, RadiusKm: 300},
	}
	res := e.Run([]Scenario{sc})[0]
	if res.FailedNodes < 1 {
		t.Fatal("hazard centered on a metro failed no nodes")
	}
	// A zero-radius hazard in the middle of the ocean fails nothing.
	far := Scenario{
		ID: 2, Kind: KindHazard, Target: "noop-hazard",
		Hazard: &risk.Hazard{Name: "noop", Center: geo.Point{Lon: -40, Lat: -55}, RadiusKm: 1},
	}
	res = e.Run([]Scenario{far})[0]
	if res.FailedNodes != 0 || res.PairsLost != 0 {
		t.Fatalf("remote hazard failed %d nodes, lost %d pairs", res.FailedNodes, res.PairsLost)
	}
}

func TestGenerateKindRestriction(t *testing.T) {
	e := newEngine(t, db(t), Options{Seed: 5, Kinds: []string{KindMetroDown}})
	for _, s := range e.Generate(20) {
		if s.Kind != KindMetroDown {
			t.Fatalf("generated kind %s with restriction to metro_down", s.Kind)
		}
	}
	if got := e.Kinds(); len(got) != 1 || got[0] != KindMetroDown {
		t.Fatalf("Kinds() = %v", got)
	}
}

func TestGenerateCoversAllKinds(t *testing.T) {
	e := newEngine(t, db(t), Options{Seed: 2})
	seen := map[string]bool{}
	for _, s := range e.Generate(200) {
		seen[s.Kind] = true
		if s.ID < 1 || s.Target == "" {
			t.Fatalf("malformed scenario %+v", s)
		}
	}
	for _, k := range e.Kinds() {
		if !seen[k] {
			t.Errorf("200 scenarios never produced kind %s (enabled: %v)", k, e.Kinds())
		}
	}
}

// dumpScenarioRelations renders both scenario relations to a canonical
// string for byte-identity comparison across independent builds.
func dumpScenarioRelations(t *testing.T, g *core.IGDB) string {
	t.Helper()
	var b strings.Builder
	for _, q := range []string{
		`SELECT scenario_id, kind, target, seed, failed_nodes, failed_edges,
			pairs_total, pairs_lost, reachability_loss, mean_inflation,
			max_inflation, components_base, components, as_of_date FROM scenario_runs`,
		`SELECT scenario_id, impact, name, lost_pairs, rank, as_of_date FROM scenario_impacts`,
	} {
		rows, err := g.Rel.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows.Rows {
			for _, v := range r {
				fmt.Fprintf(&b, "%v|", v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Two independent builds of the same world, same seed: byte-identical
// scenario_runs and scenario_impacts contents — the PR's determinism
// acceptance criterion.
func TestStoredRowsByteIdenticalAcrossBuilds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var dumps [2]string
	for i := range dumps {
		g := newDB(t)
		e := newEngine(t, g, Options{Seed: 42, Pairs: 64})
		res := e.Run(e.Generate(25))
		if _, err := e.Store(res); err != nil {
			t.Fatal(err)
		}
		dumps[i] = dumpScenarioRelations(t, g)
	}
	if dumps[0] != dumps[1] {
		t.Fatal("same seed produced different stored rows across builds")
	}
	if dumps[0] == "" {
		t.Fatal("no rows stored")
	}
}

func TestStoreSQLQueryable(t *testing.T) {
	g := newDB(t)
	e := newEngine(t, g, Options{Seed: 9, Pairs: 32})
	res := e.Run(e.Generate(10))
	n, err := e.Store(res)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("Store inserted %d rows, want >= 10", n)
	}
	rows, err := g.Rel.Query(`SELECT scenario_id, kind, reachability_loss FROM scenario_runs WHERE scenario_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("scenario 1 has %d rows, want 1", rows.Len())
	}
	if kind, _ := rows.Rows[0][1].AsText(); kind != res[0].Scenario.Kind {
		t.Fatalf("stored kind %q, want %q", kind, res[0].Scenario.Kind)
	}
	// Impacts reference stored scenarios and use the fixed dimension names.
	rows, err = g.Rel.Query(`SELECT impact FROM scenario_impacts`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows.Rows {
		d, _ := r[0].AsText()
		if d != "as" && d != "country" && d != "metro" {
			t.Fatalf("unexpected impact dimension %q", d)
		}
	}
	// The engine's span tree landed in build_trace next to the build's.
	rows, err = g.Rel.Query(`SELECT span FROM build_trace WHERE parent = 'simulate'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() < 3 {
		t.Fatalf("simulate trace has %d stage rows, want >= 3", rows.Len())
	}
}

func TestEngineRejectsEmptyKinds(t *testing.T) {
	g := db(t)
	if _, err := NewEngine(g, Options{Seed: 1, Kinds: []string{"no_such_kind"}}); err == nil {
		t.Fatal("engine accepted an options set with no applicable kinds")
	}
}
