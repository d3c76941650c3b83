package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"igdb/internal/core"
)

// TestEveryWorkloadTiny runs every workload at a tiny size, untraced and
// traced, and checks that it passes its output checks and prints every
// metric BENCHMARK.json declares, in its declared unit: the end-to-end ones
// untraced, the per-layer ones traced.
func TestEveryWorkloadTiny(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := options{seed: 7, window: time.Second, traced: traced, tiny: true, digestDir: t.TempDir()}
				res, err := execute(context.Background(), w, o, man.perLayerNames())
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("traced=%v: output checks failed: %v", traced, res.failures)
				}
				if res.attempted < 1 {
					t.Errorf("traced=%v: attempted %d operations", traced, res.attempted)
				}
				p, err := res.line(traced, man)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				for name, m := range p.Metrics {
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", name, m.Value)
					}
				}
				if traced && len(res.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			}
		})
	}
}

// TestManifestWorkloads checks that every workload BENCHMARK.json names is
// implemented.
func TestManifestWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the request schedule and
// the built relations, and that another seed changes the schedule.
func TestSameSeedSameInputs(t *testing.T) {
	ctx := context.Background()
	keys := func(seed int64) []string {
		e, tf, err := serveSetup(ctx, seed, adhocTraffic)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		var out []string
		for _, r := range schedule(tf, seed, 200) {
			out = append(out, r.key())
		}
		return out
	}
	a, b, c := keys(3), keys(3), keys(4)
	if strings.Join(a, "\x00") != strings.Join(b, "\x00") {
		t.Error("seed 3 gave two different request schedules")
	}
	if strings.Join(a, "\x00") == strings.Join(c, "\x00") {
		t.Error("seeds 3 and 4 gave the same request schedule")
	}

	var digests []string
	for i := 0; i < 2; i++ {
		out, err := pipelinePass(smallWorld(3), asOfFor(3), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, relationDigest(out.g))
	}
	if digests[0] != digests[1] {
		t.Errorf("seed 3 built relations with digests %s and %s", digests[0], digests[1])
	}
}

// TestStallShowsInQueuedLatency stalls one handler call on purpose and
// checks that the requests scheduled behind it carry the wait: latency is
// timed from each request's scheduled send time, not from when a
// connection came free.
func TestStallShowsInQueuedLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	})
	e, err := listen(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	reqs := make([]*request, 100)
	for i := range reqs {
		reqs[i] = &request{class: "path", method: http.MethodGet, target: "/"}
	}
	// 100 req/s: one slot every 10ms, so slots 5..30 queue behind the stall.
	outs := e.run(context.Background(), phase{name: "stall", rate: 100, reqs: reqs}, nil)
	for i := range outs {
		if !outs[i].ok() {
			t.Fatalf("request %d failed: %+v", i, outs[i])
		}
	}
	if got := outs[4].lat; got < stall {
		t.Errorf("stalled request latency %v, want >= %v", got, stall)
	}
	// Slot 5 was due 10ms after the stalled one started, so it waited for
	// about the rest of the stall.
	if got := outs[5].lat; got < stall-50*time.Millisecond {
		t.Errorf("request queued behind the stall has latency %v, want >= %v", got, stall-50*time.Millisecond)
	}
	if got := outs[90].lat; got > 100*time.Millisecond {
		t.Errorf("request long after the stall has latency %v; the backlog never drained", got)
	}
}

// TestCompareSQL checks the /sql output check's rules: order matters only
// under ORDER BY, and timing relations compare by row count.
func TestCompareSQL(t *testing.T) {
	ref := &sqlBody{Columns: []string{"a"}, RowCount: 2, Rows: []json.RawMessage{[]byte(`[1]`), []byte(`[2]`)}}
	body := func(rows string) []byte {
		return []byte(`{"columns":["a"],"rows":` + rows + `,"row_count":2,"cached":true,"snapshot_seq":3}`)
	}
	cases := []struct {
		sql, rows string
		ok        bool
	}{
		{"SELECT a FROM t", `[[2],[1]]`, true},
		{"SELECT a FROM t ORDER BY a", `[[1],[2]]`, true},
		{"SELECT a FROM t ORDER BY a", `[[2],[1]]`, false},
		{"SELECT a FROM t", `[[1],[3]]`, false},
		{"SELECT duration_ms FROM build_trace", `[[7],[9]]`, true},
	}
	for _, c := range cases {
		err := compareSQL(c.sql, body(c.rows), ref)
		if (err == nil) != c.ok {
			t.Errorf("compareSQL(%q, %s) = %v, want ok=%v", c.sql, c.rows, err, c.ok)
		}
	}
}

// TestPathAndFootprintChecks checks that served /path and /footprint
// answers pass the output check against the benchmark's own build, and
// that a wrong metro in either answer fails it.
func TestPathAndFootprintChecks(t *testing.T) {
	ctx := context.Background()
	e, tf, err := serveSetup(ctx, 5, adhocTraffic)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	g, err := core.Build(e.store, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(g)
	if err != nil {
		t.Fatal(err)
	}
	tamper := map[string][2]string{
		"path":      {`"via":[`, `"via":["Nowhere-ZZ",`},
		"footprint": {`"metros":[`, `"metros":[{"metro":"Nowhere","country":"ZZ"},`},
	}
	checked := map[string]bool{}
	var buf bytes.Buffer
	for _, r := range schedule(tf, 5, 200) {
		tm, ok := tamper[r.class]
		if !ok || checked[r.class] {
			continue
		}
		checked[r.class] = true
		o := e.do(ctx, r, time.Now(), &buf, true)
		if !o.ok() {
			t.Fatalf("%s: status %d %s", r.target, o.status, o.err)
		}
		if err := ref.check(r, o.body); err != nil {
			t.Errorf("%s: served answer fails its check: %v", r.target, err)
		}
		bad := bytes.Replace(o.body, []byte(tm[0]), []byte(tm[1]), 1)
		if bytes.Equal(bad, o.body) {
			t.Fatalf("%s: body has no %s to tamper with: %s", r.target, tm[0], o.body)
		}
		if err := ref.check(r, bad); err == nil {
			t.Errorf("%s: a tampered answer passes its check", r.target)
		}
	}
	if len(checked) != len(tamper) {
		t.Errorf("schedule held only the classes %v", checked)
	}
}
