package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"igdb/internal/core"
	"igdb/internal/experiments"
	"igdb/internal/reldb"
	"igdb/internal/render"
)

// The layer sweep ends every traced run. A workload's traced window
// measures the layers it drives in place; the sweep then measures every
// other layer directly on one of the run's worlds, so that a traced run
// reports the full per-layer set whatever its workload drives. A metric
// the window measured is never replaced by the sweep's reading.

// sweepProbeRate is the offered rate of the sweep's serving probe, a mix
// of the corpus and ad-hoc traffic that sends every request class.
const sweepProbeRate = 100

// sweep runs the probes on the world res names; want lists the per-layer
// metrics a traced run reports. Only the experiments probe is skipped when
// the window already measured its layer: no workload's window measures
// render, reldb or every request class.
func sweep(ctx context.Context, o options, tr *tracer, res *result, want []string) error {
	tr.on.Store(true)
	defer tr.on.Store(false)
	probe := metricSet{}

	// One collect → build → analyze pass yields the world every other
	// probe reads, and the pipeline layers' readings.
	out, err := pipelinePass(res.world, res.asOf, tr, probe)
	if err != nil {
		return err
	}
	res.attempted += 3
	checkPipeline(res, out)

	if err := renderLayer(probe, tr, out.g.Rel, o.reps(3)); err != nil {
		return err
	}
	if missing(res.layer, want, "experiments.") {
		if err := experimentsProbe(res, probe, tr, o); err != nil {
			return err
		}
	}
	if err := serveProbe(ctx, o, tr, res, probe, out); err != nil {
		return err
	}
	for name, m := range probe {
		if _, ok := res.layer[name]; !ok {
			res.layer[name] = m
		}
	}
	return nil
}

// missing reports whether a metric of want with the prefix is not in have.
func missing(have metricSet, want []string, prefix string) bool {
	for _, name := range want {
		if _, ok := have[name]; !ok && strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// serveProbe starts a server on the sweep's store, sends it a short open
// loop of corpus and ad-hoc traffic, times one Server.Rebuild, and checks
// the answers against the benchmark's own build of the store. The same
// traffic's statements then feed the reldb probes on that build.
func serveProbe(ctx context.Context, o options, tr *tracer, res *result, m metricSet, out *passOut) error {
	// The server builds from the store alone, without the rows the analyze
	// stage adds to its own build, so the reference is a fresh build.
	g, err := core.Build(out.store, core.BuildOptions{})
	if err != nil {
		return fmt.Errorf("reference build: %w", err)
	}
	e, err := newServeEnv(out.store)
	if err != nil {
		return err
	}
	defer e.close()
	ct, err := corpusTraffic(ctx, e)
	if err != nil {
		return err
	}
	at, err := adhocTraffic(ctx, e)
	if err != nil {
		return err
	}
	t := traffic{
		next: func(rng *rand.Rand) *request {
			if rng.Intn(2) == 0 {
				return ct.next(rng)
			}
			return at.next(rng)
		},
		keep: everyNth(60),
	}
	length := 3 * time.Second
	if o.tiny {
		length = 500 * time.Millisecond
	}
	ph := phase{name: "probe", rate: sweepProbeRate, reqs: schedule(t, o.seed+2, int(sweepProbeRate*length.Seconds()))}
	ph.keep = t.keep(ph.reqs)
	before, err := e.scrape(ctx)
	if err != nil {
		return err
	}
	outs := e.run(ctx, ph, tr)
	after, err := e.scrape(ctx)
	if err != nil {
		return err
	}
	phaseLayer(m, outs, ph.reqs)
	serverLayer(m, before, after, latencies(outs, ph.reqs, "sql"))

	sp := tr.begin("rebuild-probe", "Server.Rebuild", nil)
	rebuildS := timed(func() { _, _, err = e.srv.Rebuild() })
	sp.end()
	res.attempted++
	if err != nil {
		res.fail("Server.Rebuild failed: %v", err)
	} else {
		m.set("server.rebuild_s", rebuildS, "s")
	}

	ref, err := newReference(g)
	if err != nil {
		return err
	}
	checkOutcomes(res, ref, ph, outs)

	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	opMs := map[string]float64{}
	if err := explainLayer(m, g.Rel, corpus, opMs); err != nil {
		return err
	}
	adhoc := schedule(at, o.seed+3, 2000)
	if err := templateLayer(m, tr, g.Rel, adhoc, o.reps(50), opMs); err != nil {
		return err
	}
	for _, op := range opNames {
		m.set("reldb.op."+op+"_ms", opMs[op], "ms")
	}
	return nil
}

// experimentsProbe builds an experiments environment on the sweep's world
// and times each result on the pass after a warm-up pass (a tiny run
// times its only pass).
func experimentsProbe(res *result, m metricSet, tr *tracer, o options) error {
	env, err := experiments.NewEnv(res.world)
	if err != nil {
		return fmt.Errorf("experiments environment: %w", err)
	}
	passes := o.reps(2)
	for pass := 0; pass < passes; pass++ {
		trace := fmt.Sprintf("experiments-probe-%d", pass)
		for _, call := range experimentCalls(env) {
			sp := tr.begin(trace, "experiments.Env", nil)
			t0 := time.Now()
			r := call()
			d := time.Since(t0).Seconds()
			sp.end()
			res.attempted++
			if len(r.Rows) == 0 && len(r.Notes) == 0 {
				res.fail("%s: experiments probe pass %d has neither rows nor notes", r.ID, pass)
			}
			if pass == passes-1 {
				m.set("experiments."+r.ID+"_s", d, "s")
			}
		}
	}
	return nil
}

// renderLayer times render.WriteLayerGeoJSON on every layer, reps times
// each, and reports the median time and the size of the export.
func renderLayer(m metricSet, tr *tracer, db *reldb.DB, reps int) error {
	for _, layer := range render.Layers() {
		var sizes, times []float64
		for k := 0; k < reps; k++ {
			var cw countingWriter
			sp := tr.begin("render-probe", "render.WriteLayerGeoJSON", nil)
			t0 := time.Now()
			if _, err := render.WriteLayerGeoJSON(&cw, db, layer); err != nil {
				return fmt.Errorf("export %s: %w", layer, err)
			}
			times = append(times, ms(time.Since(t0)))
			sp.end()
			sizes = append(sizes, mb(uint64(cw.n)))
		}
		m.set("render.export_ms."+layer, median(times), "ms")
		m.set("render.export_mb."+layer, median(sizes), "MB")
	}
	return nil
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// explainLayer replays the corpus under EXPLAIN ANALYZE against db, adds
// each operator's wall time to opMs, and reports the rows Figure 8's
// self-join produces before its filter runs.
func explainLayer(m metricSet, db *reldb.DB, corpus []corpusStmt, opMs map[string]float64) error {
	for _, st := range corpus {
		sql := strings.TrimSpace(st.SQL)
		if strings.HasPrefix(strings.ToUpper(sql), "EXPLAIN") {
			continue
		}
		plan, err := db.Explain(sql, true)
		if err != nil {
			return fmt.Errorf("EXPLAIN ANALYZE of corpus statement: %w", err)
		}
		plan.Walk(func(n *reldb.PlanNode, _ int) {
			if n.Actual == nil {
				return
			}
			opMs[n.Op] += n.Actual.TimeMs
			if st.Name == "figure8" && (n.Op == reldb.OpHashJoin || n.Op == reldb.OpLoopJoin) {
				m.set("reldb.figure8_join_rows", float64(n.Actual.RowsOut), "count")
			}
		})
	}
	return nil
}

// opNames are the executor operators whose EXPLAIN ANALYZE time is
// reported per layer.
var opNames = []string{
	reldb.OpScan, reldb.OpHashJoin, reldb.OpLoopJoin, reldb.OpFilter, reldb.OpGroup,
	reldb.OpDistinct, reldb.OpSort, reldb.OpProject, reldb.OpLimit,
}

// templateLayer replays up to perTemplate statements of each ad-hoc
// template against db: parse (Prepare) and exec (Query) time, and rows
// examined per row returned, from EXPLAIN ANALYZE (the rows every operator
// takes in), whose operator times it adds to opMs.
func templateLayer(m metricSet, tr *tracer, db *reldb.DB, reqs []*request, perTemplate int, opMs map[string]float64) error {
	type agg struct {
		parse, exec    []float64
		examined, rows float64
		n              int
	}
	byT := map[string]*agg{}
	for _, req := range reqs {
		if req.tmpl == "" {
			continue
		}
		a := byT[req.tmpl]
		if a == nil {
			a = &agg{}
			byT[req.tmpl] = a
		}
		if a.n == perTemplate {
			continue
		}
		a.n++
		sp := tr.begin("reldb-probe", "reldb.Prepare", nil)
		t0 := time.Now()
		stmt, err := db.Prepare(req.body)
		t1 := time.Now()
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", req.tmpl, err)
		}
		sp = tr.begin("reldb-probe", "reldb.Stmt.Query", nil)
		rows, err := stmt.Query()
		t2 := time.Now()
		sp.end()
		stmt.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", req.tmpl, err)
		}
		a.parse = append(a.parse, ms(t1.Sub(t0)))
		a.exec = append(a.exec, ms(t2.Sub(t1)))
		plan, err := db.Explain(req.body, true)
		if err != nil {
			return fmt.Errorf("%s: %w", req.tmpl, err)
		}
		plan.Walk(func(n *reldb.PlanNode, _ int) {
			if n.Actual != nil {
				a.examined += float64(n.Actual.RowsIn)
				opMs[n.Op] += n.Actual.TimeMs
			}
		})
		a.rows += float64(rows.Len())
	}
	for name, a := range byT {
		m.set("reldb.parse_ms."+name, median(a.parse), "ms")
		m.set("reldb.exec_ms."+name, median(a.exec), "ms")
		m.set("reldb.rows_examined_per_row."+name, a.examined/max(a.rows, 1), "ratio")
	}
	return nil
}
