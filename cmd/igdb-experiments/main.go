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
	"sort"
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
	selected, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "igdb-experiments: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := scaleConfig(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "igdb-experiments: %v\n", err)
		flag.Usage()
		os.Exit(2)
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

	var report strings.Builder
	fmt.Fprintf(&report, "# iGDB reproduction report\n\nscale: %s, seed: %d, built in %v\n\n", *scale, cfg.Seed, time.Since(t0).Round(time.Second))

	for _, x := range selected {
		t1 := time.Now()
		r := x.Run(env)
		fmt.Fprintf(os.Stderr, "%s ready in %v\n", x.ID, time.Since(t1))
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

// scaleConfig returns the world configuration a -scale value names.
func scaleConfig(scale string) (worldgen.Config, error) {
	switch scale {
	case "small":
		return worldgen.SmallConfig(), nil
	case "paper":
		return worldgen.DefaultConfig(), nil
	}
	return worldgen.Config{}, fmt.Errorf("-scale: unknown scale %q (known: small, paper)", scale)
}

// selectExperiments returns the experiments a comma-separated -only list
// names, in paper order; all of them for an empty list. An id that names
// no experiment is an error.
func selectExperiments(only string) ([]experiments.Experiment, error) {
	all := experiments.Experiments()
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return all, nil
	}
	var out []experiments.Experiment
	for _, x := range all {
		if want[x.ID] {
			out = append(out, x)
			delete(want, x.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		ids := make([]string, len(all))
		for i, x := range all {
			ids[i] = x.ID
		}
		return nil, fmt.Errorf("-only: unknown experiment %s (known: %s)", strings.Join(unknown, ", "), strings.Join(ids, ", "))
	}
	return out, nil
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
