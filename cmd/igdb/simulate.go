package main

import (
	"flag"
	"fmt"
	"sort"

	"igdb/internal/obs"
	"igdb/internal/simulate"
)

// cmdSimulate builds the database and runs a Monte-Carlo what-if failure
// batch against it: seeded scenario generation, parallel evaluation, and
// persistence into the scenario_runs / scenario_impacts relations. The
// stored rows and the stdout report are deterministic for a given store
// and seed; timings go to the structured logger on stderr.
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	bf := addBuildFlags(fs)
	scenarios := fs.Int("scenarios", 200, "number of failure scenarios to generate and evaluate")
	seed := fs.Int64("seed", 1, "scenario generator seed (same store and seed: identical stored rows)")
	pairs := fs.Int("pairs", 256, "baseline metro pairs sampled for reachability measurement")
	top := fs.Int("top", 10, "entries kept per impact ranking (AS, country, metro)")
	_ = fs.Parse(args)
	if *scenarios < 1 {
		return fmt.Errorf("-scenarios must be at least 1")
	}
	g, err := bf.build()
	if err != nil {
		return err
	}
	eng, err := simulate.NewEngine(g, simulate.Options{
		Seed: *seed, Pairs: *pairs, TopN: *top, Logger: logger,
	})
	if err != nil {
		return err
	}
	batch := eng.Generate(*scenarios)
	results := eng.Run(batch)
	rows, err := eng.Store(results)
	if err != nil {
		return err
	}
	elapsed := eng.Elapsed()
	logger.Info("simulate finished", obs.F("scenarios", len(results)),
		obs.F("elapsed", elapsed.Round(1e6)),
		obs.F("scenarios_per_sec", fmt.Sprintf("%.1f", float64(len(results))/elapsed.Seconds())))

	fmt.Printf("simulated %d scenarios (seed %d, %d pairs sampled, kinds: %v)\n",
		len(results), *seed, eng.Pairs(), eng.Kinds())

	// Per-kind aggregates in canonical kind order.
	type agg struct {
		count    int
		sumLoss  float64
		maxLoss  float64
		partized int
	}
	byKind := map[string]*agg{}
	for _, r := range results {
		a := byKind[r.Scenario.Kind]
		if a == nil {
			a = &agg{}
			byKind[r.Scenario.Kind] = a
		}
		a.count++
		a.sumLoss += r.ReachabilityLoss
		if r.ReachabilityLoss > a.maxLoss {
			a.maxLoss = r.ReachabilityLoss
		}
		if r.Components > r.ComponentsBase {
			a.partized++
		}
	}
	fmt.Printf("%-12s %6s %10s %9s %11s\n", "kind", "count", "mean_loss", "max_loss", "partitions")
	for _, k := range simulate.AllKinds {
		a := byKind[k]
		if a == nil {
			continue
		}
		fmt.Printf("%-12s %6d %10.4f %9.4f %11d\n",
			k, a.count, a.sumLoss/float64(a.count), a.maxLoss, a.partized)
	}

	// The most damaging scenarios, by reachability loss.
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		ri, rj := results[order[i]], results[order[j]]
		if ri.ReachabilityLoss != rj.ReachabilityLoss {
			return ri.ReachabilityLoss > rj.ReachabilityLoss
		}
		return ri.Scenario.ID < rj.Scenario.ID
	})
	worst := 5
	if worst > len(order) {
		worst = len(order)
	}
	fmt.Println("worst scenarios:")
	for _, oi := range order[:worst] {
		r := results[oi]
		fmt.Printf("  #%-4d %-12s %-40s loss=%.4f components %d->%d\n",
			r.Scenario.ID, r.Scenario.Kind, r.Scenario.Target,
			r.ReachabilityLoss, r.ComponentsBase, r.Components)
	}
	fmt.Printf("stored %d rows into scenario_runs/scenario_impacts\n", rows)
	return nil
}
