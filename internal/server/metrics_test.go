package server

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var sampleLineRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? (-?[0-9.]+(e[+-][0-9]+)?|\+Inf|NaN)$`)

// metricNameRe is the project's metric naming rule.
var metricNameRe = regexp.MustCompile(`^igdb_[a-z][a-z0-9_]*$`)

// metricBase strips histogram sample suffixes so _bucket/_sum/_count series
// resolve to their declared family name.
func metricBase(name string, histograms map[string]bool) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok && histograms[base] {
			return base
		}
	}
	return name
}

// TestMetricsExposition lints the /metrics output: every exposed metric has
// exactly one HELP and one TYPE line, TYPE precedes the metric's samples,
// every sample line is well-formed Prometheus text format, and every name
// matches igdb_[a-z][a-z0-9_]*. It also requires every series perfbench
// reads, and positive parse and exec totals after an uncached statement:
// perfbench reads a missing or zero series as 0 without failing.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	// Touch several routes so per-route series exist.
	postSQL(t, h, table2SQL)
	postSQL(t, h, `DELETE FROM asn_loc`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	body := rec.Body.String()

	helpCount := map[string]int{}
	typeCount := map[string]int{}
	histograms := map[string]bool{}
	samplesSeen := map[string]bool{}
	values := map[string]string{} // unlabeled samples
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" {
				t.Errorf("HELP line without text: %q", line)
				continue
			}
			helpCount[parts[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			name, typ := parts[2], parts[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("invalid TYPE %q in %q", typ, line)
			}
			if typ == "histogram" {
				histograms[name] = true
			}
			typeCount[name]++
			if samplesSeen[name] {
				t.Errorf("TYPE for %s appears after its samples", name)
			}
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment line: %q", line)
		default:
			m := sampleLineRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			samplesSeen[metricBase(m[1], histograms)] = true
			if m[2] == "" {
				values[m[1]] = m[4]
			}
		}
	}

	for name, n := range helpCount {
		if n != 1 {
			t.Errorf("metric %s has %d HELP lines, want 1", name, n)
		}
		if typeCount[name] != 1 {
			t.Errorf("metric %s has %d TYPE lines, want 1", name, typeCount[name])
		}
	}
	for name := range typeCount {
		if helpCount[name] != 1 {
			t.Errorf("metric %s has TYPE but %d HELP lines", name, helpCount[name])
		}
		if !metricNameRe.MatchString(name) {
			t.Errorf("metric %s does not match igdb_[a-z][a-z0-9_]*", name)
		}
	}
	for name := range samplesSeen {
		if helpCount[name] == 0 {
			t.Errorf("metric %s has samples but no HELP/TYPE header", name)
		}
	}
	for _, name := range []string{
		"igdb_requests_total", "igdb_request_duration_ms", "igdb_slow_queries_total",
		"igdb_source_load_seconds", "igdb_source_rows", "igdb_build_stage_seconds",
		"igdb_collect_retries_total",
		"igdb_sql_statements", "igdb_sql_calls_total", "igdb_sql_errors_total",
		"igdb_sql_rows_total", "igdb_sql_parse_seconds_total",
		"igdb_sql_exec_seconds_total", "igdb_sql_dropped_total",
		"igdb_result_cache_hits_total", "igdb_result_cache_misses_total",
		"igdb_plan_cache_hits_total", "igdb_plan_cache_misses_total",
		"igdb_requests_rejected_total",
	} {
		if !samplesSeen[name] {
			t.Errorf("metric %s exposed no samples", name)
		}
	}
	for _, name := range []string{"igdb_sql_parse_seconds_total", "igdb_sql_exec_seconds_total"} {
		if v, err := strconv.ParseFloat(values[name], 64); err != nil || v <= 0 {
			t.Errorf("%s = %q after an uncached /sql, want > 0", name, values[name])
		}
	}
}

// TestMetricsPerRouteHistogram: each route gets its own histogram series
// alongside the unlabeled aggregate, and the aggregate equals the sum.
func TestMetricsPerRouteHistogram(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	postSQL(t, h, table2SQL)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	for _, want := range []string{
		`igdb_request_duration_ms_bucket{route="/sql",le="+Inf"} 1`,
		`igdb_request_duration_ms_bucket{route="/healthz",le="+Inf"} 1`,
		`igdb_request_duration_ms_count{route="/sql"} 1`,
		`igdb_request_duration_ms_sum{route="/sql"}`,
		`igdb_request_duration_ms_bucket{le="+Inf"} 2`, // aggregate: /sql + /healthz
		`igdb_request_duration_ms_count 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}
