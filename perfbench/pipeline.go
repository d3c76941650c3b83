package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/paths"
	"igdb/internal/worldgen"
)

// setupReps is how many times an experiments or serving run repeats its
// set-up; setup_s is the median, which keeps one slow set-up from moving
// the metric.
const setupReps = 5

// worldsPerRun is how many small worlds a pipeline run draws from its seed.
// Worlds of one size still differ in how much work they make (analyze_s
// differs by a fifth between some seeds), so a run that averages over
// several worlds moves less from seed to seed.
const worldsPerRun = 4

// worldSeeds derives a pipeline run's world seeds from its seed; the tiny
// runs of the benchmark's own tests use two worlds.
func worldSeeds(o options) []int64 {
	n := worldsPerRun
	if o.tiny {
		n = 2
	}
	rng := rand.New(rand.NewSource(o.seed))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63n(1 << 40)
	}
	return seeds
}

// meanOfMedians is the mean over worlds of each world's median.
func meanOfMedians(byWorld [][]float64) float64 {
	var ms []float64
	for _, xs := range byWorld {
		if len(xs) > 0 {
			ms = append(ms, median(xs))
		}
	}
	return mean(ms)
}

// smallWorld is the small world of a seed.
func smallWorld(seed int64) worldgen.Config {
	cfg := worldgen.SmallConfig()
	cfg.Seed = seed
	return cfg
}

// asOfFor derives the snapshot instant from the seed, so a seed names the
// same inputs on every run (igdb collect uses the wall clock instead).
func asOfFor(seed int64) time.Time {
	day := int((seed%365 + 365) % 365)
	return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day)
}

// passOut is one collect → build → analyze pass.
type passOut struct {
	collectS, buildS, analyzeS float64
	store                      *ingest.Store
	g                          *core.IGDB
	p                          *paths.Pipeline
}

func (p *passOut) totalS() float64 { return p.collectS + p.buildS + p.analyzeS }

// pipelinePass makes the calls igdb collect, igdb build and igdb analyze
// make, against an in-memory store. With a live tracer it records a span
// per call and fills layer with the per-layer readings taken between them.
func pipelinePass(cfg worldgen.Config, asOf time.Time, tr *tracer, layer metricSet) (*passOut, error) {
	out := &passOut{store: ingest.NewStore("")}
	traced := tr.begin("pipeline", "pipeline", nil)
	defer traced.end()
	var err error

	rt0 := readRuntime()
	t0 := time.Now()
	sp := tr.begin("pipeline", "worldgen.Generate", traced)
	w := worldgen.Generate(cfg)
	sp.end()
	rt1 := readRuntime()
	t1 := time.Now()
	sp = tr.begin("pipeline", "ingest.Collect", traced)
	err = ingest.Collect(w, out.store, asOf)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	t2 := time.Now()
	out.collectS = t2.Sub(t0).Seconds()

	sp = tr.begin("pipeline", "core.Build", traced)
	out.g, err = core.Build(out.store, core.BuildOptions{})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	t3 := time.Now()
	rt3 := readRuntime()
	out.buildS = t3.Sub(t2).Seconds()

	sp = tr.begin("pipeline", "paths.NewPipeline", traced)
	out.p, err = paths.NewPipeline(out.g, out.store)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	t4 := time.Now()
	sp = tr.begin("pipeline", "Pipeline.StoreIPASNDNS", traced)
	_, err = out.p.StoreIPASNDNS()
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	t5 := time.Now()
	out.analyzeS = t5.Sub(t3).Seconds()

	if traced != nil {
		layer.set("worldgen.generate_s", t1.Sub(t0).Seconds(), "s")
		layer.set("worldgen.alloc_mb", mb(rt1.allocBytes-rt0.allocBytes), "MB")
		layer.set("ingest.collect_s", t2.Sub(t1).Seconds(), "s")
		layer.set("ingest.snapshot_mb", snapshotMB(out.store), "MB")
		layer.set("core.build_s", out.buildS, "s")
		layer.set("core.alloc_mb", mb(rt3.allocBytes-rt1.allocBytes), "MB")
		layer.set("core.live_heap_mb", mb(rt3.liveHeap), "MB")
		buildTraceLayer(layer, out.g)
		layer.set("paths.new_pipeline_s", t4.Sub(t3).Seconds(), "s")
		layer.set("paths.store_ipasndns_s", t5.Sub(t4).Seconds(), "s")
		layer.set("paths.inferred_route_ms", inferredRouteMs(tr, out.g, out.p), "ms")
	}
	return out, nil
}

// snapshotMB is the size of every source's newest snapshot in the store.
func snapshotMB(store *ingest.Store) float64 {
	var n uint64
	for _, src := range ingest.Sources {
		snap, err := store.Latest(src, time.Time{})
		if err != nil {
			continue
		}
		for _, data := range snap.Files {
			n += uint64(len(data))
		}
	}
	return mb(n)
}

// buildTraceLayer turns a build's own span tree (the build_trace relation's
// source) into per-stage seconds.
func buildTraceLayer(m metricSet, g *core.IGDB) {
	stages := map[string]bool{
		"gazetteer": true, "voronoi": true, "right_of_way": true,
		"infer_standard_paths": true, "path_network": true,
	}
	sums := map[string]float64{}
	for _, si := range g.BuildTrace.Flatten() {
		switch {
		case strings.HasPrefix(si.Name, "load/"):
			sums["core.load_"+strings.TrimPrefix(si.Name, "load/")+"_s"] += si.DurationMs / 1000
		case stages[si.Name]:
			sums["core."+si.Name+"_s"] += si.DurationMs / 1000
		}
	}
	for name, s := range sums {
		m.set(name, s, "s")
	}
}

// inferredRouteMs times Pipeline.InferredRoute directly over up to 200
// std_paths endpoint pairs and returns the mean per call.
func inferredRouteMs(tr *tracer, g *core.IGDB, p *paths.Pipeline) float64 {
	t := g.Rel.Table("std_paths")
	if t == nil || p == nil {
		return 0
	}
	fm, fc := t.ColumnIndex("from_metro"), t.ColumnIndex("from_country")
	tm, tc := t.ColumnIndex("to_metro"), t.ColumnIndex("to_country")
	var times []float64
	for i, row := range t.Rows {
		if i == 200 {
			break
		}
		a := g.MetroIndex(row[fm].String() + "-" + row[fc].String())
		b := g.MetroIndex(row[tm].String() + "-" + row[tc].String())
		if a < 0 || b < 0 {
			continue
		}
		start := time.Now()
		p.InferredRoute([]int{a, b})
		end := time.Now()
		tr.record("paths-probe", "Pipeline.InferredRoute", nil, start, end)
		times = append(times, ms(end.Sub(start)))
	}
	return mean(times)
}

// relationDigest is an order-independent digest of every relation's rows,
// leaving out build_trace and source_status, which hold timings. Equal
// digests mean equal multisets of rows per relation.
func relationDigest(g *core.IGDB) string {
	h := sha256.New()
	names := g.Rel.TableNames()
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		if name == "build_trace" || name == "source_status" {
			continue
		}
		t := g.Rel.Table(name)
		var sum uint64
		for _, row := range t.Rows {
			b.Reset()
			for _, v := range row {
				b.WriteString(v.String())
				b.WriteByte(0x1f)
			}
			rh := sha256.Sum256([]byte(b.String()))
			sum += binary.LittleEndian.Uint64(rh[:8])
		}
		fmt.Fprintf(h, "%s %d %x\n", name, len(t.Rows), sum)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// checkDigest compares a world's relation digest with the one an earlier
// run of the same code, size, seed and world left in o.digestDir, and
// records it when there is none. The key holds the source digest, so a
// change that rightly alters a relation is never compared with the digest
// its parent left behind.
func checkDigest(res *result, o options, worldSeed int64, digest string) {
	src := sourceDigest()
	if o.digestDir == "" || src == "unknown" {
		return
	}
	key := fmt.Sprintf("pipeline-src%s-tiny%t-seed%d-world%d", src, o.tiny, o.seed, worldSeed)
	path := filepath.Join(o.digestDir, key+".digest")
	if prev, err := os.ReadFile(path); err == nil {
		if got := strings.TrimSpace(string(prev)); got != digest {
			res.fail("%s: relation digest %s differs from an earlier run's %s", key, digest, got)
		}
		return
	}
	if err := os.MkdirAll(o.digestDir, 0o755); err != nil {
		res.fail("%s: recording digest: %v", key, err)
		return
	}
	if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
		res.fail("%s: recording digest: %v", key, err)
	}
}

// checkPipeline applies the output checks that hold for any seed.
func checkPipeline(res *result, out *passOut) {
	g := out.g
	if n := len(g.SourceStatus); n != len(ingest.Sources) {
		res.fail("pipeline: %d sources in source_status, want %d", n, len(ingest.Sources))
	}
	for _, st := range g.SourceStatus {
		if st.Status != "ok" {
			res.fail("pipeline: source %s is %s: %s", st.Source, st.Status, st.Err)
		}
	}
	if rep := g.ConsistencyCheck(); !rep.OK() {
		res.fail("pipeline: %d cross-layer consistency violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	for _, name := range []string{"std_paths", "ip_asn_dns"} {
		if t := g.Rel.Table(name); t == nil || t.Len() == 0 {
			res.fail("pipeline: relation %s is empty", name)
		}
	}
}

// runPipeline is the pipeline-small workload: collect → build → analyze
// passes on the run's small worlds, in turn, until the window is spent.
// op_p50_ms is the mean over the worlds of each world's median pass; the
// run file adds the same figure for each stage.
func runPipeline(ctx context.Context, o options, tr *tracer) (*result, error) {
	res := newResult()
	seeds := worldSeeds(o)
	cfgs := make([]worldgen.Config, len(seeds))
	for i, seed := range seeds {
		cfgs[i] = smallWorld(seed)
	}
	asOf := asOfFor(o.seed)
	res.world, res.asOf = cfgs[0], asOf

	// Set-up is one untimed pass per world: it pages in the code and the
	// runtime's first heap arenas before passes are timed.
	var setups []float64
	for _, cfg := range cfgs {
		t0 := time.Now()
		if _, err := pipelinePass(cfg, asOf, nil, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		releaseMemory()
	}
	res.e2e.set("setup_s", median(setups), "s")

	// Passes visit the worlds in turn until the window is spent, at least
	// once each. A traced run alternates untraced and traced rounds over
	// the worlds, at least one of each; the ratio of their median wall
	// times is the tracing overhead.
	n := len(cfgs)
	collect, build, analyze, total := make([][]float64, n), make([][]float64, n), make([][]float64, n), make([][]float64, n)
	var tracedS, untracedS []float64
	digests := make([]string, n)
	minPasses := n
	var rt0 rtSample
	var peak *heapPeak
	if o.traced {
		minPasses = 2 * n
		rt0, peak = readRuntime(), startHeapPeak()
	}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < o.window; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := pass % n
		on := o.traced && (pass/n)%2 == 1
		tr.on.Store(on)
		out, err := pipelinePass(cfgs[w], asOf, tr, res.layer)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		res.attempted += 3
		collect[w] = append(collect[w], out.collectS)
		build[w] = append(build[w], out.buildS)
		analyze[w] = append(analyze[w], out.analyzeS)
		total[w] = append(total[w], out.totalS())
		if on {
			tracedS = append(tracedS, out.totalS())
		} else {
			untracedS = append(untracedS, out.totalS())
		}
		d := relationDigest(out.g)
		switch {
		case digests[w] == "":
			digests[w] = d
			checkPipeline(res, out)
			checkDigest(res, o, cfgs[w].Seed, d)
		case d != digests[w]:
			res.fail("pipeline: world %d pass %d relation digest %s differs from its first pass's %s", cfgs[w].Seed, pass, d, digests[w])
		}
	}
	res.e2e.set("peak_rss_mb", peakRSSMB(), "MB")
	res.e2e.set("op_p50_ms", 1000*meanOfMedians(total), "ms")
	res.e2e.set("collect_s", meanOfMedians(collect), "s")
	res.e2e.set("build_s", meanOfMedians(build), "s")
	res.e2e.set("analyze_s", meanOfMedians(analyze), "s")
	if o.traced {
		runtimeLayer(res.layer, rt0, readRuntime(), peak.end())
		res.layer.set("trace.overhead_ratio", median(tracedS)/median(untracedS), "ratio")
	}
	res.failed = min(res.attempted, len(res.failures))
	res.e2e.set("success_ratio", res.successRatio(), "ratio")
	return res, nil
}
