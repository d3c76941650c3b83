// Package simulate is iGDB's what-if failure engine: batch Monte-Carlo
// evaluation of physical-infrastructure failure scenarios against an
// immutable built database. It extends the paper's §4 hazard analysis (one
// hazard, one report, after RiskRoute) into a benchmarked workload in the
// spirit of Nautilus (arXiv:2302.14201): cut a submarine cable, drop an
// IXP metro, sever a right-of-way segment together with the shared-risk
// group of every inferred path riding it, or apply a circular hazard, then
// measure what the logical layer loses.
//
// The engine builds one failure graph from the built database — the
// inferred terrestrial path network (std_paths) plus submarine-cable edges
// between landing metros (sub_cables/land_points) — and evaluates each
// scenario on a masked view of it (graph.View), so the thousands of
// scenarios in a batch share one immutable graph and fan out across cores
// with no copying and no locks. Parallel links between the same metro pair
// (a cable landing where a land conduit also runs) share fate at this
// granularity: failing the pair's edge fails the link.
//
// Per scenario the engine reports reachability loss over a seeded sample
// of baseline-reachable metro pairs, path-length inflation for the pairs
// that survive, the component count of the surviving graph, and ranked
// affected-AS/country/metro impacts. Results land in the scenario_runs and
// scenario_impacts relations of core.SchemaDDL, so they are queryable
// through the same SQL surface as every other analysis, and the engine's
// span tree is appended to build_trace. Generation and evaluation are
// deterministic for a given (database, seed): same seed, same rows.
package simulate

import (
	"igdb/internal/obs"
	"igdb/internal/risk"
)

// Scenario kinds.
const (
	// KindCableCut severs every landing-to-landing edge of one submarine
	// cable.
	KindCableCut = "cable_cut"
	// KindMetroDown fails one IXP-hosting metro outright: every conduit and
	// cable terminating there goes with it.
	KindMetroDown = "metro_down"
	// KindSegmentCut severs one right-of-way segment and the shared-risk
	// group of every inferred standard path routed over it.
	KindSegmentCut = "segment_cut"
	// KindHazard applies a circular risk.Hazard: every metro inside it
	// fails, and every edge whose geometry crosses it is severed.
	KindHazard = "hazard"
)

// AllKinds lists every scenario kind in canonical order.
var AllKinds = []string{KindCableCut, KindMetroDown, KindSegmentCut, KindHazard}

// Scenario is one resolved what-if case. Edges and Nodes are in the
// engine's compact failure-graph ID space; hazard scenarios carry the
// hazard itself and resolve their failure set during evaluation (the
// geometry test is the expensive part, so it runs inside the worker pool).
type Scenario struct {
	ID     int
	Kind   string
	Target string // cable name, metro label, segment label, or hazard circle
	Edges  [][2]int
	Nodes  []int
	Hazard *risk.Hazard
}

// Impact is one ranked entry of a scenario's damage attribution: how many
// sampled pairs that lost connectivity touch this AS / country / metro.
type Impact struct {
	Name      string
	LostPairs int
	Rank      int
}

// Result is the outcome of evaluating one scenario.
type Result struct {
	Scenario    Scenario
	FailedNodes int
	FailedEdges int

	PairsTotal       int
	PairsLost        int
	ReachabilityLoss float64 // PairsLost / PairsTotal

	// Inflation is new/baseline shortest-path length over surviving pairs
	// (1 when untouched); zero when no pair survives.
	MeanInflation float64
	MaxInflation  float64

	ComponentsBase int // failure-graph components before the scenario
	Components     int // components among surviving metros after it

	ASImpacts      []Impact
	CountryImpacts []Impact
	MetroImpacts   []Impact
}

// Options configures an Engine.
type Options struct {
	// Seed drives pair sampling and scenario generation. Two engines over
	// the same built database with the same seed produce byte-identical
	// scenario_runs / scenario_impacts contents.
	Seed int64
	// Pairs is the number of baseline-reachable metro pairs sampled for
	// reachability and inflation measurement (default 256).
	Pairs int
	// TopN bounds each impact ranking stored per scenario (default 10).
	TopN int
	// Kinds restricts generation to a subset of AllKinds (default: every
	// kind the database has candidates for).
	Kinds []string
	// Logger receives structured diagnostics. Nil is silent.
	Logger *obs.Logger
}
