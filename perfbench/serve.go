package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/obs"
	"igdb/internal/render"
	"igdb/internal/server"
	"igdb/internal/worldgen"
)

// serveSpec fixes one serving workload's offered load.
type serveSpec struct {
	// rate is the offered rate of the fixed-rate phase, where latency is
	// measured; it sits well below the box's capacity for the mix.
	rate float64
	// rebuildEvery is the period of in-process Server.Rebuild calls
	// during the window (0: no rebuilds).
	rebuildEvery time.Duration
	// mix makes the workload's traffic on a started server.
	mix func(context.Context, *serveEnv) (traffic, error)
}

// serveEnv is an in-process server on a loopback listener, with the store
// it serves and a client limited to one connection per core.
type serveEnv struct {
	store  *ingest.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	conns  int
}

// collectWorld generates the small world of a seed and collects it into
// an in-memory store.
func collectWorld(seed int64) (*ingest.Store, error) {
	store := ingest.NewStore("")
	if err := ingest.Collect(worldgen.Generate(smallWorld(seed)), store, asOfFor(seed)); err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	return store, nil
}

// newServeEnv starts a server on store.
func newServeEnv(store *ingest.Store) (*serveEnv, error) {
	srv, err := server.New(server.Config{Store: store, Logger: obs.New(io.Discard)})
	if err != nil {
		return nil, err
	}
	e, err := listen(srv.Handler(), runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	e.store, e.srv = store, srv
	return e, nil
}

// listen serves h on a loopback port and makes a client that opens at
// most conns connections to it.
func listen(h http.Handler, conns int) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	return &serveEnv{
		conns:  conns,
		base:   "http://" + ln.Addr().String(),
		hs:     hs,
		served: served,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}, nil
}

// close stops the listener and waits for the server goroutine to end.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.client.CloseIdleConnections()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.served
}

// post sends one statement and decodes the rows of a 200 answer.
func (e *serveEnv) post(ctx context.Context, sql string) ([][]interface{}, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+"/sql", strings.NewReader(sql))
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var res struct {
		Rows [][]interface{} `json:"rows"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// get issues one GET and reports its status.
func (e *serveEnv) get(ctx context.Context, target string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+target, nil)
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// discoverDomains asks the server for the literal domains and path pairs.
func (e *serveEnv) discoverDomains(ctx context.Context, q map[string]string) (*domains, error) {
	d := &domains{}
	text := func(v interface{}) string { s, _ := v.(string); return s }
	rows, err := e.post(ctx, q["asns"])
	if err != nil {
		return nil, fmt.Errorf("discovering ASNs: %w", err)
	}
	for _, r := range rows {
		if f, ok := r[0].(float64); ok {
			d.asns = append(d.asns, int64(f))
		}
	}
	if rows, err = e.post(ctx, q["countries"]); err != nil {
		return nil, fmt.Errorf("discovering countries: %w", err)
	}
	for _, r := range rows {
		d.countries = append(d.countries, text(r[0]))
	}
	if rows, err = e.post(ctx, q["metros"]); err != nil {
		return nil, fmt.Errorf("discovering metros: %w", err)
	}
	for _, r := range rows {
		d.metros = append(d.metros, [2]string{text(r[0]), text(r[1])})
	}
	if rows, err = e.post(ctx, q["pairs"]); err != nil {
		return nil, fmt.Errorf("discovering std_paths endpoints: %w", err)
	}
	seen := map[[2]string]bool{}
	for _, r := range rows {
		from := [2]string{text(r[0]), text(r[1])}
		if !seen[from] {
			seen[from] = true
			d.froms = append(d.froms, from)
		}
		d.pairs = append(d.pairs, [2]string{text(r[0]) + "-" + text(r[1]), text(r[2]) + "-" + text(r[3])})
	}
	if len(d.asns) == 0 || len(d.countries) < 2 || len(d.metros) == 0 || len(d.pairs) == 0 {
		return nil, errors.New("a literal domain is empty")
	}
	return d, nil
}

// ---- open-loop generator ----------------------------------------------

// outcome is one scheduled request.
type outcome struct {
	sent   bool
	status int
	err    string
	lat    time.Duration // completion minus scheduled send time
	late   time.Duration // dispatch minus scheduled send time
	body   []byte        // kept only for requests picked for checking
}

func (o *outcome) ok() bool { return o.sent && o.err == "" && o.status >= 200 && o.status < 300 }

// phase is one stretch of open-loop traffic at a fixed rate.
type phase struct {
	name string
	rate float64
	reqs []*request       // one per scheduled slot, sent every 1/rate seconds
	keep func(i int) bool // which bodies to retain for checking
}

// run sends the phase's requests on schedule over at most conns
// connections. Requests wait in an unbounded queue when every connection
// is busy, and each is timed from its scheduled send time, so a stalled
// handler shows in the latency of the requests queued behind it.
func (e *serveEnv) run(ctx context.Context, ph phase, tr *tracer) []outcome {
	n := len(ph.reqs)
	outs := make([]outcome, n)
	interval := time.Duration(float64(time.Second) / ph.rate)
	// Buffered to n so the dispatcher never blocks: the buffer is the
	// backlog an overloaded server builds up.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < e.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				if ctx.Err() != nil {
					continue
				}
				due := start.Add(time.Duration(i) * interval)
				o := e.do(ctx, ph.reqs[i], due, &buf, ph.keep != nil && ph.keep(i))
				o.late = outs[i].late
				outs[i] = o
				if tr != nil {
					tr.record(fmt.Sprintf("%s-%d", ph.name, i), "http "+ph.reqs[i].class, nil, due, due.Add(o.lat))
				}
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

func (e *serveEnv) do(ctx context.Context, r *request, due time.Time, buf *bytes.Buffer, keep bool) outcome {
	o := outcome{sent: true}
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, e.base+r.target, body)
	if err != nil {
		o.err = err.Error()
		return o
	}
	resp, err := e.client.Do(req)
	if err != nil {
		o.err = err.Error()
		o.lat = time.Since(due)
		return o
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	o.lat = time.Since(due)
	o.status = resp.StatusCode
	if err != nil {
		o.err = err.Error()
	}
	if keep {
		o.body = append([]byte(nil), buf.Bytes()...)
	}
	return o
}

// latencies returns the latency in ms of every sent request (of one class
// when class is not empty).
func latencies(outs []outcome, reqs []*request, class string) []float64 {
	var xs []float64
	for i := range outs {
		if outs[i].sent && (class == "" || reqs[i].class == class) {
			xs = append(xs, ms(outs[i].lat))
		}
	}
	return xs
}

// ---- rebuilds ---------------------------------------------------------

// rebuildTicker calls Server.Rebuild in-process on a fixed period, so rebuilds
// compete with readers for the cores without using a connection.
type rebuildTicker struct {
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	mu    sync.Mutex
	times []float64 // guarded by mu
	errs  int       // guarded by mu
}

func startRebuildTicker(srv *server.Server, every time.Duration) *rebuildTicker {
	rb := &rebuildTicker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rb.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-rb.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			_, _, err := srv.Rebuild()
			d := time.Since(t0).Seconds()
			rb.mu.Lock()
			if err != nil {
				rb.errs++
			} else {
				rb.times = append(rb.times, d)
			}
			rb.mu.Unlock()
		}
	}()
	return rb
}

// end stops the ticker, waits for an in-flight rebuild, and returns
// the wall times of the rebuilds that succeeded and the failure count. It
// may be called more than once.
func (rb *rebuildTicker) end() ([]float64, int) {
	rb.once.Do(func() { close(rb.stop) })
	<-rb.done
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.times, rb.errs
}

// ---- /metrics ---------------------------------------------------------

// scrape reads the server's unlabelled counters from GET /metrics.
func (e *serveEnv) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// requestClasses are the kinds of request the generator sends.
var requestClasses = []string{"sql", "export", "path", "footprint"}

// phaseLayer reports a phase's latency per request class and overall, and
// how late the generator dispatched its requests.
func phaseLayer(m metricSet, outs []outcome, reqs []*request) {
	for _, class := range requestClasses {
		if xs := latencies(outs, reqs, class); len(xs) > 0 {
			m.set("server."+class+"_p50_ms", quantile(xs, 0.50), "ms")
			m.set("server."+class+"_p99_ms", quantile(xs, 0.99), "ms")
		}
	}
	m.set("server.p99_ms", quantile(latencies(outs, reqs, ""), 0.99), "ms")
	m.set("loadgen.late_p99_ms", lateP99(outs), "ms")
}

// serverLayer reports /metrics deltas over a window plus the client-side
// overhead beyond the server's own parse and exec time.
func serverLayer(m metricSet, before, after map[string]float64, sqlLatMs []float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	ratio := func(hits, misses string) float64 {
		if t := d(hits) + d(misses); t > 0 {
			return d(hits) / t
		}
		return 0
	}
	m.set("server.result_hit_ratio", ratio("igdb_result_cache_hits_total", "igdb_result_cache_misses_total"), "ratio")
	m.set("server.plan_hit_ratio", ratio("igdb_plan_cache_hits_total", "igdb_plan_cache_misses_total"), "ratio")
	m.set("server.parse_s", d("igdb_sql_parse_seconds_total"), "s")
	m.set("server.exec_s", d("igdb_sql_exec_seconds_total"), "s")
	m.set("server.rejected", d("igdb_requests_rejected_total"), "count")
	if calls := d("igdb_sql_calls_total"); calls > 0 && len(sqlLatMs) > 0 {
		inServer := (d("igdb_sql_parse_seconds_total") + d("igdb_sql_exec_seconds_total")) * 1000 / calls
		m.set("server.overhead_ms", mean(sqlLatMs)-inServer, "ms")
	}
}

// ---- the workloads ----------------------------------------------------

// The rates keep each mix at about a third of the two cores, so losing a
// share of the CPU to the host slows requests without building a queue.
var (
	corpusSpec = serveSpec{rate: 200, mix: corpusTraffic}
	adhocSpec  = serveSpec{rate: 100, rebuildEvery: time.Second, mix: adhocTraffic}
)

// traffic builds a workload's requests; next draws the request for one
// schedule slot.
type traffic struct {
	next func(rng *rand.Rand) *request
	// keep picks, from a phase's requests, the slots whose bodies are
	// checked after the window.
	keep func(reqs []*request) func(int) bool
}

// weighted picks among classes by integer weight.
func weighted(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	p := rng.Intn(total)
	for i, w := range weights {
		if p < w {
			return i
		}
		p -= w
	}
	return len(weights) - 1
}

// firstOfEachKey keeps the first occurrence of every distinct request.
func firstOfEachKey(reqs []*request) func(int) bool {
	seen := map[string]bool{}
	first := make([]bool, len(reqs))
	for i, r := range reqs {
		if k := r.key(); !seen[k] {
			seen[k] = true
			first[i] = true
		}
	}
	return func(i int) bool { return first[i] }
}

// everyNth keeps an evenly spread sample of about limit slots.
func everyNth(limit int) func([]*request) func(int) bool {
	return func(reqs []*request) func(int) bool {
		step := max(1, len(reqs)/limit)
		return func(i int) bool { return i%step == 0 }
	}
}

// schedule draws n requests from the traffic with a seeded generator.
func schedule(t traffic, seed int64, n int) []*request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = t.next(rng)
	}
	return reqs
}

// serveSetup makes one set-up of a serving workload: a world collected
// into a store, a server on it, and the workload's traffic.
func serveSetup(ctx context.Context, seed int64, mix func(context.Context, *serveEnv) (traffic, error)) (*serveEnv, traffic, error) {
	store, err := collectWorld(seed)
	if err != nil {
		return nil, traffic{}, err
	}
	e, err := newServeEnv(store)
	if err != nil {
		return nil, traffic{}, err
	}
	t, err := mix(ctx, e)
	if err != nil {
		e.close()
		return nil, traffic{}, err
	}
	return e, t, nil
}

// corpusTraffic is serve-corpus's traffic on e: the corpus statements
// validated against it (each must answer 200), every result-cache entry
// and export warmed once, and every std_paths endpoint pair on /path.
func corpusTraffic(ctx context.Context, e *serveEnv) (traffic, error) {
	corpus, err := loadCorpus()
	if err != nil {
		return traffic{}, err
	}
	ad, err := loadAdhoc()
	if err != nil {
		return traffic{}, err
	}
	var sqls, exports []*request
	for _, st := range corpus {
		if _, err := e.post(ctx, st.SQL); err != nil {
			return traffic{}, fmt.Errorf("corpus statement %.60q: %w", st.SQL, err)
		}
		sqls = append(sqls, sqlRequest(st.SQL, ""))
	}
	for _, layer := range render.Layers() {
		if status, err := e.get(ctx, "/export/"+layer); err != nil || status != http.StatusOK {
			return traffic{}, fmt.Errorf("export %s: status %d, %v", layer, status, err)
		}
		exports = append(exports, exportRequest(layer))
	}
	d, err := e.discoverDomains(ctx, ad.Discovery)
	if err != nil {
		return traffic{}, err
	}
	pathReqs := make([]*request, len(d.pairs))
	for i, p := range d.pairs {
		pathReqs[i] = pathRequest(p)
	}
	// loadgen's default mix: sql=8, export=1, path=1.
	classes := [][]*request{sqls, exports, pathReqs}
	return traffic{
		next: func(rng *rand.Rand) *request {
			c := classes[weighted(rng, []int{8, 1, 1})]
			return c[rng.Intn(len(c))]
		},
		keep: firstOfEachKey,
	}, nil
}

// adhocTraffic is serve-adhoc-rebuild's traffic on e: seeded statements
// from the ad-hoc templates over the literal domains e answers, plus
// /footprint and /path.
func adhocTraffic(ctx context.Context, e *serveEnv) (traffic, error) {
	ad, err := loadAdhoc()
	if err != nil {
		return traffic{}, err
	}
	d, err := e.discoverDomains(ctx, ad.Discovery)
	if err != nil {
		return traffic{}, err
	}
	return traffic{
		next: func(rng *rand.Rand) *request {
			switch weighted(rng, []int{8, 1, 1}) {
			case 0:
				tm := ad.Templates[rng.Intn(len(ad.Templates))]
				return sqlRequest(d.instantiate(tm, rng), tm.Name)
			case 1:
				return footprintRequest(d.asns[rng.Intn(len(d.asns))])
			default:
				return pathRequest(d.pairs[rng.Intn(len(d.pairs))])
			}
		},
		keep: everyNth(300),
	}, nil
}

func runServeCorpus(ctx context.Context, o options, tr *tracer) (*result, error) {
	return runServe(ctx, o, tr, corpusSpec)
}

func runServeAdhoc(ctx context.Context, o options, tr *tracer) (*result, error) {
	return runServe(ctx, o, tr, adhocSpec)
}

// phaseLength is how long one fixed-rate phase runs: the whole window, or
// half of it in a traced run, which repeats the phase traced.
func phaseLength(o options) time.Duration {
	switch {
	case o.tiny:
		return 600 * time.Millisecond
	case o.traced:
		return o.window / 2
	}
	return o.window
}

// runServe is the body of both serving workloads: set-up (repeated, median
// reported), a fixed-rate phase that fills the window, and the output
// checks after it. Rebuilds run only while the phases run, so rebuild_s is
// measured under the workload's fixed offered load.
//
// The phase records p50 and p99, but only p50 is printed. On a 2-core box
// the tail of a phase is set by coincidences — exports clustering on the
// two connections, GC cycles and rebuilds meeting requests, generator
// lateness — and swings by a quarter to a half of its median from run to
// run. The run file keeps p99_ms and the traced run reports server.p99_ms.
func runServe(ctx context.Context, o options, tr *tracer, spec serveSpec) (*result, error) {
	res := newResult()
	res.world, res.asOf = smallWorld(o.seed), asOfFor(o.seed)
	var e *serveEnv
	var t traffic
	var setups []float64
	for i := 0; i < o.reps(setupReps); i++ {
		if e != nil {
			e.close()
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if e, t, err = serveSetup(ctx, o.seed, spec.mix); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	res.e2e.set("setup_s", median(setups), "s")
	releaseMemory()

	var rb *rebuildTicker
	if spec.rebuildEvery > 0 {
		every := spec.rebuildEvery
		if o.tiny {
			every = 200 * time.Millisecond
		}
		rb = startRebuildTicker(e.srv, every)
		defer rb.end()
	}
	// Fixed-rate phase. A traced run repeats it, first untraced and then
	// traced, and reports the ratio of the two p50s as tracing overhead.
	n := int(spec.rate * phaseLength(o).Seconds())
	fixed := phase{name: "fixed", rate: spec.rate, reqs: schedule(t, o.seed, n)}
	fixed.keep = t.keep(fixed.reqs)
	phases := []phase{fixed}
	outs := [][]outcome{e.run(ctx, fixed, nil)}
	lat := latencies(outs[0], fixed.reqs, "")
	res.e2e.set("op_p50_ms", quantile(lat, 0.50), "ms")
	res.e2e.set("p99_ms", quantile(lat, 0.99), "ms")
	res.lateP99Ms = lateP99(outs[0])

	if o.traced {
		before, err := e.scrape(ctx)
		if err != nil {
			return nil, err
		}
		traced := phase{name: "traced", rate: spec.rate, reqs: schedule(t, o.seed+1, n)}
		traced.keep = t.keep(traced.reqs)
		rt0, peak := readRuntime(), startHeapPeak()
		tr.on.Store(true)
		b := e.run(ctx, traced, tr)
		tr.on.Store(false)
		runtimeLayer(res.layer, rt0, readRuntime(), peak.end())
		after, err := e.scrape(ctx)
		if err != nil {
			return nil, err
		}
		phases, outs = append(phases, traced), append(outs, b)
		phaseLayer(res.layer, b, traced.reqs)
		serverLayer(res.layer, before, after, latencies(b, traced.reqs, "sql"))
		res.lateP99Ms = lateP99(b)
		res.layer.set("trace.overhead_ratio",
			quantile(latencies(b, traced.reqs, ""), 0.5)/quantile(lat, 0.5), "ratio")
	}

	if rb != nil {
		rebuilds, errs := rb.end()
		res.attempted += len(rebuilds) + errs
		res.failed += errs
		for i := 0; i < errs; i++ {
			res.fail("Server.Rebuild failed")
		}
		if len(rebuilds) > 0 {
			res.e2e.set("rebuild_s", median(rebuilds), "s")
			if o.traced {
				res.layer.set("server.rebuild_s", median(rebuilds), "s")
			}
		}
	}
	res.e2e.set("peak_rss_mb", peakRSSMB(), "MB")

	// Output checks, after the window, against a reference built from the
	// same store.
	g, err := core.Build(e.store, core.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	ref, err := newReference(g)
	if err != nil {
		return nil, err
	}
	for i, ph := range phases {
		checkOutcomes(res, ref, ph, outs[i])
	}
	res.e2e.set("success_ratio", res.successRatio(), "ratio")
	return res, nil
}

// checkOutcomes counts a phase's sent requests as attempted and checks
// each: a 2xx status, and for the requests the phase kept, the body
// against ref.
func checkOutcomes(res *result, ref *reference, ph phase, outs []outcome) {
	for j := range outs {
		out := &outs[j]
		if !out.sent {
			continue
		}
		res.attempted++
		if !out.ok() {
			res.failed++
			res.fail("%s %s: status %d %s", ph.reqs[j].method, ph.reqs[j].target, out.status, out.err)
			continue
		}
		if out.body != nil {
			if err := ref.check(ph.reqs[j], out.body); err != nil {
				res.failed++
				res.fail("%s %s %.80q: %v", ph.reqs[j].method, ph.reqs[j].target, ph.reqs[j].body, err)
			}
		}
	}
}

func lateP99(outs []outcome) float64 {
	var xs []float64
	for i := range outs {
		if outs[i].sent {
			xs = append(xs, ms(outs[i].late))
		}
	}
	return quantile(xs, 0.99)
}

// reference answers requests from the benchmark's own copy of the database,
// built from the same store as the server's.
type reference struct {
	g         *core.IGDB
	sql       map[string]*sqlBody
	footprint map[string]string // the /footprint reference queries
}

func newReference(g *core.IGDB) (*reference, error) {
	ad, err := loadAdhoc()
	if err != nil {
		return nil, err
	}
	return &reference{g: g, sql: map[string]*sqlBody{}, footprint: ad.Reference}, nil
}

func (r *reference) check(req *request, body []byte) error {
	switch req.class {
	case "sql":
		ref, ok := r.sql[req.body]
		if !ok {
			var err error
			if ref, err = referenceSQL(r.g.Rel, req.body); err != nil {
				return fmt.Errorf("reference: %v", err)
			}
			r.sql[req.body] = ref
		}
		return compareSQL(req.body, body, ref)
	case "export":
		ref, err := referenceExport(r.g.Rel, strings.TrimPrefix(req.target, "/export/"))
		if err != nil {
			return fmt.Errorf("reference: %v", err)
		}
		return compareExport(body, ref)
	case "path":
		return checkPath(r.g, req.target, body)
	case "footprint":
		return checkFootprint(r.g, r.footprint, req.target, body)
	}
	return fmt.Errorf("no reference for request class %q", req.class)
}
