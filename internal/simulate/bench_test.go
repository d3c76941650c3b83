package simulate

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkScenarioThroughput measures scenarios/sec over a fixed batch at
// GOMAXPROCS 1 and 4, so at one worker and at four; the ratio of the two
// is the speedup the cores give.
func BenchmarkScenarioThroughput(b *testing.B) {
	g := db(b)
	e, err := NewEngine(g, Options{Seed: 11, Pairs: 128})
	if err != nil {
		b.Fatal(err)
	}
	sc := e.Generate(64)
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				e.Run(sc)
			}
			b.ReportMetric(float64(len(sc)*b.N)/b.Elapsed().Seconds(), "scenarios/sec")
		})
	}
}
