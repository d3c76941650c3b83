// Command igdb is the Internet Geographic Database toolkit: it collects
// timestamped snapshots from the (emulated) input sources, builds the
// cross-layer database, runs SQL analyses over it, audits cross-layer
// consistency, exports GIS layers as GeoJSON or SVG, and serves the built
// database over HTTP.
//
// Usage:
//
//	igdb collect -dir DIR [-scale small|paper] [-seed N] [-retries N] [-continue-on-error]
//	igdb build   -dir DIR [-as-of YYYY-MM-DD] [-degraded] [-stale-after DUR]
//	igdb check   -dir DIR
//	igdb sql     -dir DIR 'SELECT ...'
//	igdb tables  -dir DIR
//	igdb export  -dir DIR -layer LAYER [-format geojson|svg] [-o FILE]
//	igdb analyze -dir DIR [-as-of YYYY-MM-DD]
//	igdb simulate -dir DIR [-scenarios N] [-seed S] [-workers W] [-pairs P] [-top K]
//	igdb serve   -dir DIR [-addr :8080] [-rebuild-every DUR] [-degraded] [-leader]
//	igdb serve   -follow URL [-addr :8081] [-replica-poll DUR]
//
// -degraded builds quarantine corrupt, missing, or stale sources in the
// source_status relation and keep going; the default is to fail loudly on
// the first bad source.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/obs"
	"igdb/internal/paths"
	"igdb/internal/render"
	"igdb/internal/wkt"
	"igdb/internal/worldgen"
)

// logger is the CLI's structured diagnostic sink (stderr). IGDB_LOG_FORMAT
// (text|json) and IGDB_LOG_LEVEL (debug|info|warn|error) configure it.
// Command output proper (tables, query rows, exports) stays on stdout.
var logger = obs.FromEnv(os.Stderr)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "sql":
		err = cmdSQL(os.Args[2:])
	case "tables":
		err = cmdTables(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		logger.Error("unknown command", obs.F("command", os.Args[1]))
		usage()
		os.Exit(2)
	}
	if err != nil {
		logger.Error("command failed", obs.F("command", os.Args[1]), obs.F("err", err))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `igdb — the Internet Geographic Database toolkit

commands:
  collect   pull a snapshot of every input source into a store directory
  build     build the cross-layer database and print relation sizes
  check     build and run the cross-layer consistency audit
  sql       run a SQL query against the built database
  tables    list relations and row counts
  export    export a layer as GeoJSON or SVG
  analyze   fuse the traceroute mesh into ip_asn_dns and summarize it
  simulate  run Monte-Carlo what-if failure scenarios against the built database
  serve     serve the built database over HTTP (read-only SQL API);
            -leader replicates snapshots to followers, -follow URL consumes them

run 'igdb COMMAND -h' for command flags
`)
}

func loadStore(dir string) (*ingest.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	store := ingest.NewStore(dir)
	if err := store.Load(); err != nil {
		return nil, err
	}
	return store, nil
}

// buildFlags are the flags shared by every command that builds the
// database from a store directory.
type buildFlags struct {
	dir        string
	asOf       string
	degraded   bool
	staleAfter time.Duration
}

func addBuildFlags(fs *flag.FlagSet) *buildFlags {
	f := &buildFlags{}
	fs.StringVar(&f.dir, "dir", "", "snapshot store directory")
	fs.StringVar(&f.asOf, "as-of", "", "build as of date (YYYY-MM-DD, default newest)")
	fs.BoolVar(&f.degraded, "degraded", false, "quarantine bad sources in source_status instead of failing the build")
	fs.DurationVar(&f.staleAfter, "stale-after", 0, "sources lagging the newest snapshot by more than this are stale (0 = never)")
	return f
}

func (f *buildFlags) build() (*core.IGDB, error) {
	store, err := loadStore(f.dir)
	if err != nil {
		return nil, err
	}
	opts := core.BuildOptions{Degraded: f.degraded, StaleAfter: f.staleAfter, Logger: logger}
	if f.asOf != "" {
		t, err := time.Parse("2006-01-02", f.asOf)
		if err != nil {
			return nil, fmt.Errorf("bad -as-of: %v", err)
		}
		opts.AsOf = t.Add(24*time.Hour - time.Second)
	}
	g, err := core.Build(store, opts)
	if err != nil {
		return nil, err
	}
	if q := g.QuarantinedSources(); len(q) > 0 {
		logger.Warn("degraded build: sources quarantined (see the source_status relation)",
			obs.F("quarantined", strings.Join(q, ", ")))
	}
	return g, nil
}

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	dir := fs.String("dir", "", "snapshot store directory")
	scale := fs.String("scale", "small", "world scale: small or paper")
	seed := fs.Int64("seed", 0, "world seed override")
	retries := fs.Int("retries", 3, "attempt budget per source (transient failures back off and retry)")
	contOnErr := fs.Bool("continue-on-error", false, "keep collecting remaining sources after one exhausts its budget")
	_ = fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	cfg := worldgen.SmallConfig()
	if *scale == "paper" {
		cfg = worldgen.DefaultConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	logger.Info("generating world", obs.F("scale", *scale), obs.F("seed", cfg.Seed))
	w := worldgen.Generate(cfg)
	store := ingest.NewStore(*dir)
	asOf := time.Now().UTC().Truncate(time.Second)
	// Interrupt aborts the retry backoff instead of leaving the CLI
	// sleeping through an exhausted source's delay schedule.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	report, err := ingest.CollectWith(ctx, w, store, asOf, ingest.CollectOptions{
		MaxAttempts:     *retries,
		ContinueOnError: *contOnErr,
		Logger:          logger,
	})
	if report != nil {
		for _, res := range report.Results {
			if res.Err != nil {
				logger.Error("source collection failed", obs.F("source", res.Source),
					obs.F("attempts", res.Attempts), obs.F("err", res.Err))
			}
		}
	}
	if err != nil {
		return err
	}
	ok := len(ingest.Sources)
	if report != nil {
		ok -= len(report.Failed())
	}
	fmt.Printf("collected %d/%d sources into %s (as of %s)\n", ok, len(ingest.Sources), *dir, asOf.Format(time.RFC3339))
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	bf := addBuildFlags(fs)
	trace := fs.String("trace", "", "write the build's span tree as JSON to this file and print a timing summary")
	_ = fs.Parse(args)
	t0 := time.Now()
	g, err := bf.build()
	if err != nil {
		return err
	}
	if *trace != "" {
		var buf bytes.Buffer
		if err := g.BuildTrace.WriteJSON(&buf); err != nil {
			return fmt.Errorf("encoding trace: %v", err)
		}
		if err := os.WriteFile(*trace, buf.Bytes(), 0o666); err != nil {
			return fmt.Errorf("writing trace: %v", err)
		}
		g.BuildTrace.Summary(os.Stderr)
		logger.Info("trace written", obs.F("file", *trace))
	}
	fmt.Printf("built iGDB in %v\n", time.Since(t0).Round(time.Millisecond))
	return printTables(g)
}

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	bf := addBuildFlags(fs)
	_ = fs.Parse(args)
	g, err := bf.build()
	if err != nil {
		return err
	}
	return printTables(g)
}

func printTables(g *core.IGDB) error {
	fmt.Printf("%-16s %s\n", "relation", "rows")
	for _, name := range g.Rel.TableNames() {
		fmt.Printf("%-16s %d\n", name, g.Rel.Table(name).Len())
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	bf := addBuildFlags(fs)
	_ = fs.Parse(args)
	g, err := bf.build()
	if err != nil {
		return err
	}
	rep := g.ConsistencyCheck()
	fmt.Printf("audited %d rows\n", rep.Checked)
	if rep.OK() {
		fmt.Println("cross-layer consistency: OK")
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Printf("violation: %s\n", v)
	}
	return fmt.Errorf("%d consistency violations", len(rep.Violations))
}

func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	bf := addBuildFlags(fs)
	explain := fs.Bool("explain", false, "show the execution plan instead of running the statement")
	analyze := fs.Bool("analyze", false, "like -explain, but execute and annotate actual rows and time")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: igdb sql [-explain|-analyze] -dir DIR 'SELECT ...'")
	}
	g, err := bf.build()
	if err != nil {
		return err
	}
	sql := fs.Arg(0)
	if *analyze {
		sql = "EXPLAIN ANALYZE " + sql
	} else if *explain {
		sql = "EXPLAIN " + sql
	}
	rows, err := g.Rel.Query(sql)
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(rows.Columns, "\t"))
	for _, row := range rows.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Fprintf(os.Stderr, "(%d rows)\n", rows.Len())
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	bf := addBuildFlags(fs)
	_ = fs.Parse(args)
	store, err := loadStore(bf.dir)
	if err != nil {
		return err
	}
	g, err := bf.build()
	if err != nil {
		return err
	}
	p, err := paths.NewPipeline(g, store)
	if err != nil {
		return err
	}
	n, err := p.StoreIPASNDNS()
	if err != nil {
		return err
	}
	fmt.Printf("analyzed %d measurements; ip_asn_dns now holds %d rows\n", len(p.Measurements), n)
	rows := g.Rel.MustQuery(`SELECT geo_source, COUNT(*) FROM ip_asn_dns GROUP BY geo_source ORDER BY 2 DESC`)
	for _, r := range rows.Rows {
		src, _ := r[0].AsText()
		if src == "" {
			src = "(unlocated)"
		}
		cnt, _ := r[1].AsInt()
		fmt.Printf("  %-12s %d\n", src, cnt)
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	bf := addBuildFlags(fs)
	layer := fs.String("layer", "", "layer: phys_nodes | std_paths | sub_cables | city_points | city_polygons")
	format := fs.String("format", "geojson", "geojson or svg")
	out := fs.String("o", "", "output file (default stdout)")
	_ = fs.Parse(args)
	g, err := bf.build()
	if err != nil {
		return err
	}
	var data []byte
	switch *format {
	case "geojson":
		data, err = exportGeoJSON(g, *layer)
	case "svg":
		data, err = exportSVG(g, *layer)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func exportGeoJSON(g *core.IGDB, layer string) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := render.WriteLayerGeoJSON(&buf, g.Rel, layer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func exportSVG(g *core.IGDB, layer string) ([]byte, error) {
	m := render.NewWorldMap(1600, 800)
	m.SetTitle("iGDB layer: " + layer)
	style := render.Style{Stroke: "#2980b9", StrokeWidth: 0.5, Fill: "#e67e22", Radius: 1.5}
	err := render.LayerFeatures(g.Rel, layer, func(geom wkt.Geometry, props map[string]interface{}) error {
		m.Geometry(geom, style)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m.SVG(), nil
}
