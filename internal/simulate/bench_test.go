package simulate

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkScenarioThroughput measures scenarios/sec over a fixed batch at
// one worker and at one worker per available CPU; the ratio of the two is
// the all-core speedup.
func BenchmarkScenarioThroughput(b *testing.B) {
	g := db(b)
	e, err := NewEngine(g, Options{Seed: 11, Pairs: 128})
	if err != nil {
		b.Fatal(err)
	}
	sc := e.Generate(64)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(sc, workers)
			}
			b.ReportMetric(float64(len(sc)*b.N)/b.Elapsed().Seconds(), "scenarios/sec")
		})
	}
}
