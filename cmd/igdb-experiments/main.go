// Command igdb-experiments regenerates every table and figure from the
// iGDB paper's evaluation against the synthetic world, printing each
// result with paper-vs-measured notes and, given -out, writing figure
// artifacts (SVG) to that directory.
//
// Usage:
//
//	igdb-experiments [-scale small|paper] [-out DIR] [-only table1,figure7]
//	                 [-seed N] [-md FILE]
//
// No figure is written without -out. The tracked figures in artifacts/ are
// the paper-scale run's: go run ./cmd/igdb-experiments -scale paper -out artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"igdb/internal/experiments"
	"igdb/internal/worldgen"
)

func main() {
	scale := flag.String("scale", "small", "world scale: small (seconds) or paper (Table 1 magnitudes, ~minutes)")
	out := flag.String("out", "", "directory for figure artifacts (empty = skip)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default all)")
	seed := flag.Int64("seed", 0, "world seed override (0 = config default)")
	md := flag.String("md", "", "write a Markdown report to this file")
	flag.Parse()

	cfg := worldgen.SmallConfig()
	if *scale == "paper" {
		cfg = worldgen.DefaultConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	fmt.Fprintf(os.Stderr, "building %s-scale environment (seed %d)...\n", *scale, cfg.Seed)
	t0 := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "igdb-experiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v\n", time.Since(t0))

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}

	var report strings.Builder
	fmt.Fprintf(&report, "# iGDB reproduction report\n\nscale: %s, seed: %d, built in %v\n\n", *scale, cfg.Seed, time.Since(t0).Round(time.Second))

	for _, r := range env.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		printResult(r)
		writeMarkdown(&report, r)
		if *out != "" {
			for name, data := range r.Artifacts {
				if err := os.MkdirAll(*out, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "artifacts: %v\n", err)
					os.Exit(1)
				}
				path := filepath.Join(*out, name)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "artifacts: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("  wrote %s\n", path)
			}
		}
	}
	if *md != "" {
		if err := os.WriteFile(*md, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *md)
	}
}

func printResult(r experiments.Result) {
	fmt.Printf("\n=== %s ===\n", r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			w := len(c)
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "  %-*s", w, c)
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
	printRow(r.Header)
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

func writeMarkdown(b *strings.Builder, r experiments.Result) {
	fmt.Fprintf(b, "## %s\n\n", r.Title)
	fmt.Fprintf(b, "| %s |\n", strings.Join(r.Header, " | "))
	seps := make([]string, len(r.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range r.Rows {
		fmt.Fprintf(b, "| %s |\n", strings.Join(row, " | "))
	}
	b.WriteString("\n")
	for _, n := range r.Notes {
		fmt.Fprintf(b, "- %s\n", n)
	}
	b.WriteString("\n")
}
