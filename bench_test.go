// Package igdb_test benchmarks every table and figure of the paper's
// evaluation: one testing.B target per experiment, each running the full
// analysis (SQL + measurement fusion + rendering) against a shared
// pre-built environment, plus end-to-end pipeline benchmarks.
//
// By default the environment is SmallConfig (seconds to build, same
// structure as the paper-scale world). Set IGDB_BENCH_SCALE=paper to run
// the benchmarks against the full Table 1 magnitudes.
package igdb_test

import (
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"igdb/internal/core"
	"igdb/internal/experiments"
	"igdb/internal/geo"
	"igdb/internal/ingest"
	"igdb/internal/obs"
	"igdb/internal/risk"
	"igdb/internal/server"
	"igdb/internal/worldgen"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func benchConfig() worldgen.Config {
	if os.Getenv("IGDB_BENCH_SCALE") == "paper" {
		return worldgen.DefaultConfig()
	}
	return worldgen.SmallConfig()
}

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		e, err := experiments.NewEnv(benchConfig())
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

func run(b *testing.B, f func() experiments.Result) {
	e := env(b)
	_ = e
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := f()
		if len(r.Rows) == 0 && len(r.Notes) == 0 {
			b.Fatal("experiment produced nothing")
		}
	}
}

// --- one benchmark per paper table ---

func BenchmarkTable1_DatabaseCharacteristics(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Table1() })
}

func BenchmarkTable2_ASCountryPresence(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Table2() })
}

func BenchmarkTable3_MissingLocations(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Table3() })
}

// --- one benchmark per paper figure ---

func BenchmarkFigure3_ThiessenPolygons(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Figure3() })
}

func BenchmarkFigure4_InterTubesComparison(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Figure4() })
}

func BenchmarkFigure5_PhysicalMap(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Figure5() })
}

func BenchmarkFigure6_ISPOverlap(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Figure6() })
}

func BenchmarkFigure7_TraceroutePhysicalPath(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Figure7() })
}

func BenchmarkFigure8_RocketfuelComparison(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Figure8() })
}

func BenchmarkFigure9_MadridBerlin(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Figure9() })
}

func BenchmarkFigure10_NodeDistributionCDF(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Figure10() })
}

func BenchmarkSection44_BeliefPropagation(b *testing.B) {
	run(b, func() experiments.Result { return env(b).Section44() })
}

// --- pipeline-stage benchmarks (ablation view of where the time goes) ---

// BenchmarkPipeline_WorldGeneration measures synthesizing the Internet.
func BenchmarkPipeline_WorldGeneration(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worldgen.Generate(cfg)
	}
}

// BenchmarkPipeline_Collect measures exporting all source snapshots.
func BenchmarkPipeline_Collect(b *testing.B) {
	w := worldgen.Generate(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := ingest.NewStore("")
		if err := ingest.Collect(w, store, time.Unix(1780000000, 0).UTC()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_BuildDB measures the iGDB build: standardization,
// Voronoi, right-of-way inference, relational load.
func BenchmarkPipeline_BuildDB(b *testing.B) {
	w := worldgen.Generate(benchConfig())
	store := ingest.NewStore("")
	if err := ingest.Collect(w, store, time.Unix(1780000000, 0).UTC()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(store, core.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_ConsistencyCheck measures the cross-layer audit.
func BenchmarkPipeline_ConsistencyCheck(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := e.G.ConsistencyCheck()
		if !rep.OK() {
			b.Fatalf("violations: %v", rep.Violations)
		}
	}
}

// BenchmarkExtension_RiskAssessment measures the RiskRoute-style hazard
// analysis (§4.2's "areas of study" application) over the Gulf-coast
// scenario.
func BenchmarkExtension_RiskAssessment(b *testing.B) {
	e := env(b)
	hazard := risk.Hazard{Name: "Gulf hurricane", Center: geo.Point{Lon: -92.5, Lat: 29.8}, RadiusKm: 450}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := risk.Assess(e.G, hazard)
		if err != nil {
			b.Fatal(err)
		}
		risk.DetourCost(e.G, hazard, rep)
	}
}

// BenchmarkPipeline_AnalyzeMesh measures §4.2 trace analysis across the
// whole anchor mesh.
func BenchmarkPipeline_AnalyzeMesh(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range e.P.Measurements {
			e.P.AnalyzeTrace(m)
		}
	}
}

// BenchmarkBuildTraced quantifies the span-tracing overhead: the same build
// with tracing on (the default — span tree recorded and persisted into
// build_trace) and off (SkipTrace). The Traced/op over Untraced/op ratio is
// the observability tax; it should stay under a few percent.
func BenchmarkBuildTraced(b *testing.B) {
	store := serveBenchStore(b)
	for _, bc := range []struct {
		name string
		skip bool
	}{
		{"Traced", false},
		{"Untraced", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := core.Build(store, core.BuildOptions{SkipTrace: bc.skip})
				if err != nil {
					b.Fatal(err)
				}
				if !bc.skip && g.BuildTrace == nil {
					b.Fatal("traced build recorded no trace")
				}
			}
		})
	}
}

// --- serving-layer benchmarks ---

// serveBenchSQL is the paper's Table 2 query (AS country presence), the
// heaviest read the demo UI issues.
const serveBenchSQL = `
	SELECT l.asn, MIN(n.asn_name) AS name, MIN(o.organization) AS org,
	       COUNT(DISTINCT l.country) AS countries
	FROM asn_loc l
	JOIN asn_name n ON n.asn = l.asn AND n.source = 'asrank'
	JOIN asn_org  o ON o.asn = l.asn AND o.source = 'asrank'
	GROUP BY l.asn
	ORDER BY countries DESC, l.asn ASC
	LIMIT 11`

var (
	serveOnce  sync.Once
	serveStore *ingest.Store
)

func serveBenchStore(b *testing.B) *ingest.Store {
	b.Helper()
	serveOnce.Do(func() {
		w := worldgen.Generate(benchConfig())
		store := ingest.NewStore("")
		if err := ingest.Collect(w, store, time.Unix(1780000000, 0).UTC()); err != nil {
			panic(err)
		}
		serveStore = store
	})
	return serveStore
}

// BenchmarkServeSQLThroughput measures the igdb serve read path end to
// end — HTTP clients included — hammering POST /sql with the Table 2
// query from many goroutines, with and without the result cache.
func BenchmarkServeSQLThroughput(b *testing.B) {
	for _, bc := range []struct {
		name      string
		cacheSize int
	}{
		{"ResultCache", 256},
		{"NoResultCache", -1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := server.New(server.Config{
				Store:     serveBenchStore(b),
				CacheSize: bc.cacheSize,
				Logger:    obs.New(io.Discard),
			})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			b.SetParallelism(8) // ≥8 in-flight clients even on one core
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := ts.Client()
				for pb.Next() {
					resp, err := client.Post(ts.URL+"/sql", "text/plain", strings.NewReader(serveBenchSQL))
					if err != nil {
						b.Fatal(err)
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						b.Fatalf("POST /sql = %d", resp.StatusCode)
					}
				}
			})
		})
	}
}
