package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"igdb/internal/experiments"
)

// experimentCalls lists the Env methods of one pass, in paper order.
func experimentCalls(e *experiments.Env) []func() experiments.Result {
	return []func() experiments.Result{
		e.Table1, e.Table2, e.Table3, e.Figure3, e.Figure4, e.Figure5,
		e.Figure6, e.Figure7, e.Figure8, e.Figure9, e.Figure10, e.Section44,
	}
}

// resultHash covers a result's rows and notes but not its artifacts: the
// Figure 6, 8 and 9 SVGs are drawn from Go maps and differ between passes.
func resultHash(r experiments.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x1e%s\x1e", r.ID, strings.Join(r.Header, "\x1f"))
	for _, row := range r.Rows {
		fmt.Fprintf(h, "%s\x1e", strings.Join(row, "\x1f"))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(h, "%s\x1e", n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runExperiments is the experiments-small workload: set-up builds the
// environment with experiments.NewEnv, and the window regenerates all 12
// results pass after pass. The first pass in the process runs slower and
// is a warm-up: op_p50_ms is the median of the passes after it.
func runExperiments(ctx context.Context, o options, tr *tracer) (*result, error) {
	res := newResult()
	res.world, res.asOf = smallWorld(o.seed), asOfFor(o.seed)
	var env *experiments.Env
	var setups []float64
	for i := 0; i < o.reps(setupReps); i++ {
		env = nil
		releaseMemory()
		t0 := time.Now()
		e, err := experiments.NewEnv(res.world)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	res.e2e.set("setup_s", median(setups), "s")
	releaseMemory()

	calls := experimentCalls(env)
	first := map[string]string{} // result ID -> hash on the first pass
	var passTimes []float64
	perID := map[string][]float64{}
	var tracedTimes, untracedTimes []float64
	rt0 := readRuntime()
	var peak *heapPeak
	if o.traced {
		peak = startHeapPeak()
	}
	start := time.Now()
	minPasses := 3
	for pass := 0; pass < minPasses || time.Since(start) < o.window; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Traced runs alternate traced and untraced passes so the overhead
		// ratio compares passes from the same stretch of the run.
		on := o.traced && pass%2 == 1
		tr.on.Store(on)
		trace := fmt.Sprintf("pass-%d", pass)
		root := tr.begin(trace, "experiments.pass", nil)
		t0 := time.Now()
		for _, call := range calls {
			c0 := time.Now()
			sp := tr.begin(trace, "experiments.Env", root)
			r := call()
			sp.end()
			res.attempted++
			if pass > 0 {
				perID[r.ID] = append(perID[r.ID], time.Since(c0).Seconds())
			}
			if len(r.Rows) == 0 && len(r.Notes) == 0 {
				res.fail("%s: pass %d has neither rows nor notes", r.ID, pass)
			}
			h := resultHash(r)
			if pass == 0 {
				first[r.ID] = h
			} else if first[r.ID] != h {
				res.fail("%s: pass %d rows or notes differ from pass 0", r.ID, pass)
			}
		}
		d := time.Since(t0).Seconds()
		root.end()
		tr.on.Store(false)
		if pass == 0 {
			continue
		}
		passTimes = append(passTimes, d)
		if on {
			tracedTimes = append(tracedTimes, d)
		} else {
			untracedTimes = append(untracedTimes, d)
		}
	}
	res.e2e.set("peak_rss_mb", peakRSSMB(), "MB")
	res.e2e.set("op_p50_ms", 1000*median(passTimes), "ms")
	res.failed = min(res.attempted, len(res.failures))
	res.e2e.set("success_ratio", res.successRatio(), "ratio")

	if o.traced {
		runtimeLayer(res.layer, rt0, readRuntime(), peak.end())
		for id, ts := range perID {
			res.layer.set("experiments."+id+"_s", median(ts), "s")
		}
		if len(tracedTimes) > 0 && len(untracedTimes) > 0 {
			res.layer.set("trace.overhead_ratio", median(tracedTimes)/median(untracedTimes), "ratio")
		}
	}
	return res, nil
}
