package geoloc

import (
	"testing"
)

func TestPropagateOneHop(t *testing.T) {
	// hop 1 known (city 7), hop 2 unknown, within thresholds → inherits.
	traces := []Observation{{
		IPs:  []uint32{1, 2},
		RTTs: []float64{5.0, 6.0},
	}}
	known := map[uint32]int{1: 7}
	inf := Propagate(traces, known, Options{})
	got, ok := inf[2]
	if !ok || got.City != 7 || got.Iteration != 1 || got.FromIP != 1 {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
}

func TestPropagateRespectsThresholds(t *testing.T) {
	// Differential latency >= 2 ms: no propagation.
	traces := []Observation{{IPs: []uint32{1, 2}, RTTs: []float64{5.0, 7.5}}}
	if inf := Propagate(traces, map[uint32]int{1: 7}, Options{}); len(inf) != 0 {
		t.Error("propagated across a 2.5 ms boundary")
	}
	// Beyond the 30 ms origin bound: no propagation.
	traces = []Observation{{IPs: []uint32{1, 2}, RTTs: []float64{31.0, 31.5}}}
	if inf := Propagate(traces, map[uint32]int{1: 7}, Options{}); len(inf) != 0 {
		t.Error("propagated beyond the origin bound")
	}
}

func TestPropagateIterates(t *testing.T) {
	// A chain: 1(known) - 2 - 3; 3 is only reachable on iteration 2.
	traces := []Observation{{
		IPs:  []uint32{1, 2, 3},
		RTTs: []float64{5.0, 5.5, 6.0},
	}}
	inf := Propagate(traces, map[uint32]int{1: 7}, Options{})
	if inf[2].Iteration != 1 || inf[3].Iteration != 2 {
		t.Fatalf("iterations: %+v", inf)
	}
	if inf[3].City != 7 {
		t.Error("location did not chain")
	}
	// Capped at one round: hop 3 stays unknown.
	inf = Propagate(traces, map[uint32]int{1: 7}, Options{MaxIterations: 1})
	if _, ok := inf[3]; ok {
		t.Error("MaxIterations ignored")
	}
}

func TestPropagateBackward(t *testing.T) {
	// Known hop downstream locates the unknown upstream hop.
	traces := []Observation{{IPs: []uint32{1, 2}, RTTs: []float64{4.0, 4.5}}}
	inf := Propagate(traces, map[uint32]int{2: 9}, Options{})
	if inf[1].City != 9 {
		t.Fatalf("backward propagation failed: %+v", inf)
	}
}

func TestPropagateMajorityVote(t *testing.T) {
	// IP 5 is adjacent to two known city-3 hops and one known city-8 hop.
	traces := []Observation{
		{IPs: []uint32{1, 5}, RTTs: []float64{4, 4.3}},
		{IPs: []uint32{2, 5}, RTTs: []float64{4, 4.4}},
		{IPs: []uint32{3, 5}, RTTs: []float64{4, 4.5}},
	}
	known := map[uint32]int{1: 3, 2: 3, 3: 8}
	inf := Propagate(traces, known, Options{})
	if inf[5].City != 3 {
		t.Fatalf("majority vote failed: %+v", inf[5])
	}
}

func TestPropagateDoesNotOverwriteKnown(t *testing.T) {
	traces := []Observation{{IPs: []uint32{1, 2}, RTTs: []float64{4, 4.2}}}
	known := map[uint32]int{1: 3, 2: 9}
	if inf := Propagate(traces, known, Options{}); len(inf) != 0 {
		t.Error("known locations must not be re-inferred")
	}
}

func TestConsistency(t *testing.T) {
	inferred := map[uint32]Inference{
		1: {City: 3}, 2: {City: 5}, 3: {City: 7},
	}
	independent := map[uint32]int{1: 3, 2: 6, 9: 1}
	agree, total := Consistency(inferred, independent)
	if agree != 1 || total != 2 {
		t.Errorf("agree=%d total=%d, want 1/2", agree, total)
	}
}

func TestNewTuples(t *testing.T) {
	inferred := map[uint32]Inference{
		1: {City: 3}, 2: {City: 3}, 3: {City: 5}, 4: {City: 9},
	}
	ipASN := map[uint32]int{1: 100, 2: 100, 3: 100, 4: -1}
	existing := map[[2]int]bool{{5, 100}: true}
	got := NewTuples(inferred, ipASN, existing)
	// (3,100) new once; (5,100) exists; (9,-1) unmapped.
	if len(got) != 1 || !got[[2]int{3, 100}] {
		t.Errorf("got %v", got)
	}
}
