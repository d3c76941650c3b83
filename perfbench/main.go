// Command perfbench is igdb's end-to-end benchmark. One invocation runs one
// workload from a seed, measures it for a fixed window, checks the
// program's outputs, and prints one JSON result line:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds every end-to-end metric BENCHMARK.json
// declares; with --trace 1 it holds every per-layer one, including the
// tracing overhead, and the benchmark's spans are written to
// .perfbench/out. The process exits 1 when any output check fails. See
// README.md beside this file for the workloads and layers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"igdb/internal/worldgen"
)

// outDir holds everything a run leaves behind (span dumps, full results,
// per-seed digests), relative to the directory the benchmark runs from.
const outDir = ".perfbench"

// options are the inputs of one workload run.
type options struct {
	seed   int64
	window time.Duration // --seconds: how long the measured work runs
	traced bool
	// tiny shrinks worlds, set-up repetitions and serve phases so the
	// benchmark's own tests finish in seconds. Runs from the command line
	// never set it.
	tiny bool
	// digestDir, when set, persists per-seed relation digests so a later
	// run of the same code and seed in the same checkout must reproduce
	// them.
	digestDir string
}

// reps is n, or 1 in a tiny run.
func (o options) reps(n int) int {
	if o.tiny {
		return 1
	}
	return n
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	run  func(ctx context.Context, o options, tr *tracer) (*result, error)
}

var workloads = []workload{
	{"pipeline-small", runPipeline},
	{"experiments-small", runExperiments},
	{"serve-corpus", runServeCorpus},
	{"serve-adhoc-rebuild", runServeAdhoc},
}

// manifestMetric is one metric BENCHMARK.json declares.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest holds the metrics BENCHMARK.json declares. Every workload
// prints all of them: the end-to-end ones untraced, the per-layer ones
// traced.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest() (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) perLayerNames() []string {
	names := make([]string, len(m.PerLayer))
	for i, pm := range m.PerLayer {
		names[i] = pm.Name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	o := options{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		traced:    *trace == 1,
		digestDir: filepath.Join(outDir, "digests"),
	}
	res, err := execute(context.Background(), w, o, man.perLayerNames())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeRunFile(w.name, o, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for i, f := range res.failures {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... %d more output-check failures\n", len(res.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: output check failed: %s\n", f)
	}
	stampLine, err := json.Marshal(res.stamp)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "stamp %s\n", stampLine)
	p, err := res.line(o.traced, man)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		return 1
	}
	return 0
}

// execute runs one workload with its stamp and host readings around it.
// A traced run ends with the layer sweep, which measures the per-layer
// metrics in perLayer that the workload's own window did not.
func execute(ctx context.Context, w workload, o options, perLayer []string) (*result, error) {
	tr := newTracer(o.traced)
	steal0 := stealSeconds()
	res, err := w.run(ctx, o, tr)
	if err != nil {
		return nil, err
	}
	if o.traced {
		n := len(res.failures)
		if err := sweep(ctx, o, tr, res, perLayer); err != nil {
			return nil, fmt.Errorf("layer sweep: %w", err)
		}
		res.failed += len(res.failures) - n
		res.spans = tr.spans()
	}
	res.stamp = newStamp(w.name, o)
	res.stamp.StealS = stealSeconds() - steal0
	res.stamp.GeneratorLateP99Ms = res.lateP99Ms
	return res, nil
}

// writeRunFile keeps the full record of a run — stamp, both metric sets,
// spans — under outDir/out for later inspection.
func writeRunFile(name string, o options, res *result) error {
	dir := filepath.Join(outDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.traced {
		trace = 1
	}
	rec := struct {
		Stamp     stamp     `json:"stamp"`
		EndToEnd  metricSet `json:"end_to_end"`
		PerLayer  metricSet `json:"per_layer,omitempty"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Failures  []string  `json:"failures,omitempty"`
		Spans     []spanRec `json:"spans,omitempty"`
	}{res.stamp, res.e2e, res.layer, res.attempted, res.failed, res.failures, res.spans}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, o.seed, trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is what a workload run produces.
type result struct {
	// world and asOf name the small world the layer sweep measures: the
	// workload's own, or its first one.
	world     worldgen.Config
	asOf      time.Time
	e2e       metricSet
	layer     metricSet
	attempted int
	failed    int
	failures  []string // output-check failures, in the order found
	lateP99Ms float64  // open-loop generator lateness (serve workloads)
	spans     []spanRec
	stamp     stamp
}

func newResult() *result {
	return &result{e2e: metricSet{}, layer: metricSet{}}
}

// fail records one failed output check.
func (r *result) fail(format string, args ...interface{}) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.failures) == 0 && r.failed == 0 }

// successRatio is operations that completed and passed their checks over
// operations attempted.
func (r *result) successRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// printed is the final stdout record.
type printed struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// line is the final stdout record: every end-to-end metric the manifest
// declares, or every per-layer one in a traced run, each in its declared
// unit. A declared metric the run did not measure is an error.
func (r *result) line(traced bool, man *manifest) (printed, error) {
	have, want := r.e2e, man.EndToEnd
	if traced {
		have, want = r.layer, man.PerLayer
	}
	ms := metricSet{}
	for _, w := range want {
		m, ok := have[w.Name]
		if !ok {
			return printed{}, fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return printed{}, fmt.Errorf("metric %s is in %s, BENCHMARK.json declares %s", w.Name, m.Unit, w.Unit)
		}
		ms[w.Name] = m
	}
	return printed{r.correct(), r.attempted, r.failed, ms}, nil
}
