package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ---- spans ------------------------------------------------------------

// spanRec is one finished span: the benchmark's own record of a call into
// a layer. Spans of one request or stage share a trace ID.
type spanRec struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// hands out nil spans, whose methods do nothing.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	recs   []spanRec // guarded by mu
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// span is an open span.
type span struct {
	tr     *tracer
	id     int64
	parent int64
	trace  string
	name   string
	start  time.Time
}

// begin opens a span; parent may be nil for a trace's root.
func (t *tracer) begin(trace, name string, parent *span) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	s := &span{tr: t, id: t.nextID.Add(1), trace: trace, name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

// record adds a span whose interval is already known.
func (t *tracer) record(trace, name string, parent *span, start, end time.Time) {
	if s := t.begin(trace, name, parent); s != nil {
		s.start = start
		s.finish(end)
	}
}

func (s *span) end() {
	if s != nil {
		s.finish(time.Now())
	}
}

func (s *span) finish(end time.Time) {
	t := s.tr
	rec := spanRec{
		ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
		StartMs: ms(s.start.Sub(t.t0)), EndMs: ms(end.Sub(t.t0)),
	}
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

func (t *tracer) spans() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanRec, len(t.recs))
	copy(out, t.recs)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ---- runtime and host readings ---------------------------------------

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	allocBytes  uint64  // cumulative heap allocation
	gcCycles    uint64  // completed GC cycles
	gcCPU       float64 // estimated CPU seconds spent in GC
	liveHeap    uint64  // heap marked live by the last GC
	heapObjects uint64  // bytes in live and not-yet-swept heap objects
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	var gcCPU float64
	if s[2].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[2].Value.Float64()
	}
	return rtSample{allocBytes: u(0), gcCycles: u(1), gcCPU: gcCPU, liveHeap: u(3), heapObjects: u(4)}
}

// heapPeak samples the heap every few milliseconds until stopped; the
// runtime keeps no high-water mark of its own.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := readRuntime().heapObjects; v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in bytes.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// runtimeLayer reports the Go runtime's share of a run between two readings.
func runtimeLayer(m metricSet, from, to rtSample, peakBytes uint64) {
	m.set("runtime.gc_cpu_s", to.gcCPU-from.gcCPU, "s")
	m.set("runtime.gc_cycles", float64(to.gcCycles-from.gcCycles), "count")
	m.set("runtime.alloc_mb", mb(to.allocBytes-from.allocBytes), "MB")
	m.set("runtime.heap_peak_mb", mb(peakBytes), "MB")
}

// releaseMemory collects the garbage a finished set-up left behind and
// returns it to the OS, so each set-up, and the measured work after the
// last one, starts from the heap a fresh process would have.
func releaseMemory() { debug.FreeOSMemory() }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stealSeconds is the host-wide CPU time stolen by the hypervisor so far,
// from the aggregate line of /proc/stat (USER_HZ ticks, 100 per second on
// Linux).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// ---- stamp -------------------------------------------------------------

// stamp attributes a result to the machine, toolchain, code and inputs it
// came from, so a noisy neighbour or a different box is visible.
type stamp struct {
	Workload           string  `json:"workload"`
	Seed               int64   `json:"seed"`
	WindowS            float64 `json:"window_s"`
	Traced             bool    `json:"traced"`
	Scale              string  `json:"scale"`
	Cores              int     `json:"cores"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	GoVersion          string  `json:"go_version"`
	Commit             string  `json:"commit"`
	SourceSHA256       string  `json:"source_sha256"`
	StealS             float64 `json:"host_cpu_steal_s"`
	GeneratorLateP99Ms float64 `json:"generator_late_p99_ms,omitempty"`
}

func newStamp(name string, o options) stamp {
	scale := "small"
	if o.tiny {
		scale = "tiny"
	}
	return stamp{
		Workload:     name,
		Seed:         o.seed,
		WindowS:      o.window.Seconds(),
		Traced:       o.traced,
		Scale:        scale,
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       vcsRevision(),
		SourceSHA256: sourceDigest(),
	}
}

// vcsRevision is the commit the binary was built from, when the build saw
// a VCS checkout; checkouts without history report "unknown" and rely on
// the source digest instead.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// repoRoot is the repository root relative to the working directory: runs
// start at the root, the benchmark's tests one level down.
func repoRoot() string {
	if _, err := os.Stat("internal"); err != nil {
		return ".."
	}
	return "."
}

// sourceDigest hashes the module's Go sources and go.mod files, which
// identifies the code under test even where no commit is recorded.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(repoRoot(), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n != "." && n != ".." && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ---- statistics -------------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[min(i, len(s)-1)]
}

// median is the middle value of xs, averaging the two middle values of
// an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}
