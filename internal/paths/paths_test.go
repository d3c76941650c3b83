package paths

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"igdb/internal/core"
	"igdb/internal/geoloc"
	"igdb/internal/ingest"
	"igdb/internal/iptrie"
	"igdb/internal/sources/ripeatlas"
	"igdb/internal/worldgen"
)

var (
	once     sync.Once
	world    *worldgen.World
	gdb      *core.IGDB
	pipeline *Pipeline
)

func fixture(t *testing.T) (*worldgen.World, *core.IGDB, *Pipeline) {
	t.Helper()
	once.Do(func() {
		world = worldgen.Generate(worldgen.SmallConfig())
		store := ingest.NewStore("")
		if err := ingest.Collect(world, store, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)); err != nil {
			panic(err)
		}
		var err error
		gdb, err = core.Build(store, core.BuildOptions{SkipPolygons: true})
		if err != nil {
			panic(err)
		}
		pipeline, err = NewPipeline(gdb, store)
		if err != nil {
			panic(err)
		}
	})
	return world, gdb, pipeline
}

// measurementBetween finds the mesh measurement between two named metros.
func measurementBetween(w *worldgen.World, p *Pipeline, src, dst string) (ripeatlas.Measurement, bool) {
	tr := w.FindTrace(src, dst)
	if tr == nil {
		return ripeatlas.Measurement{}, false
	}
	for _, m := range p.Measurements {
		if m.SrcAnchor == tr.SrcAnchor && m.DstAnchor == tr.DstAnchor {
			return m, true
		}
	}
	return ripeatlas.Measurement{}, false
}

func TestPipelineTrained(t *testing.T) {
	_, _, p := fixture(t)
	if p.Hoiho.Domains() == 0 {
		t.Error("Hoiho learned no conventions")
	}
	if len(p.PTR) == 0 || len(p.Measurements) == 0 || len(p.AnchorCity) == 0 {
		t.Fatal("pipeline inputs empty")
	}
}

func TestBdrmapAccuracyOnGroundTruth(t *testing.T) {
	w, _, p := fixture(t)
	correct, total := 0, 0
	fixableCorrect, fixableTotal := 0, 0 // borrowed interfaces WITH a PTR record
	blindTotal := 0                      // borrowed interfaces without rDNS: uncorrectable
	for _, tr := range w.Traces {
		vis := tr.VisibleHops()
		ips := make([]uint32, len(vis))
		for i, h := range vis {
			ips[i] = h.IP
		}
		got := p.Mapper.MapTrace(ips, p.PTR)
		for i, h := range vis {
			if got[i] < 0 {
				continue
			}
			total++
			if got[i] == h.ASN {
				correct++
			}
			if w.BorderOwner(h.IP) >= 0 {
				if _, hasPTR := p.PTR[h.IP]; hasPTR {
					fixableTotal++
					if got[i] == h.ASN {
						fixableCorrect++
					}
				} else {
					blindTotal++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no attributed hops")
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("bdrmap accuracy %.3f, want >= 0.9", acc)
	}
	if fixableTotal == 0 || blindTotal == 0 {
		t.Fatalf("noise model inactive: fixable=%d blind=%d", fixableTotal, blindTotal)
	}
	// Plain LPM scores 0 on borrowed interfaces; with rDNS evidence bdrmap
	// must fix the large majority.
	if acc := float64(fixableCorrect) / float64(fixableTotal); acc < 0.8 {
		t.Errorf("border-interface accuracy %.3f with rDNS, want >= 0.8 (%d/%d)",
			acc, fixableCorrect, fixableTotal)
	}
}

func TestHoihoAccuracyOnGroundTruth(t *testing.T) {
	w, g, p := fixture(t)
	correct, total := 0, 0
	for _, rt := range w.Routers {
		if !rt.Geohint || rt.Hostname == "" {
			continue
		}
		city, ok := p.Hoiho.Locate(rt.Hostname)
		if !ok {
			continue
		}
		total++
		if g.Cities[city].Name == w.Cities[rt.City].Name {
			correct++
		}
	}
	if total < 20 {
		t.Fatalf("hoiho located only %d routers", total)
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Errorf("hoiho precision %.3f on %d routers, want >= 0.8", acc, total)
	}
}

func TestFigure7KansasCityAtlanta(t *testing.T) {
	w, g, p := fixture(t)
	m, ok := measurementBetween(w, p, "Kansas City", "Atlanta")
	if !ok {
		t.Fatal("reference KC→Atlanta measurement missing")
	}
	ta := p.AnalyzeTrace(m)
	// The visible metro sequence skips Tulsa (hidden by MPLS).
	var names []string
	for _, c := range ta.CitySeq {
		names = append(names, g.Cities[c].Name)
	}
	want := []string{"Kansas City", "Dallas", "Houston", "Atlanta"}
	if !equalStrings(names, want) {
		t.Fatalf("visible metro sequence = %v, want %v", names, want)
	}
	// AS path includes Cogent.
	has174 := false
	for _, asn := range ta.ASPath {
		if asn == 174 {
			has174 = true
		}
	}
	if !has174 {
		t.Errorf("AS path %v missing AS174", ta.ASPath)
	}
	// Hidden-node inference proposes Tulsa (and possibly Oklahoma City)
	// between KC and Dallas.
	kc, dal := g.CityByName("Kansas City", "", "US"), g.CityByName("Dallas", "", "US")
	cands := p.HiddenNodeCandidates(kc, dal, []int{174}, 25)
	foundTulsa := false
	for _, c := range cands {
		if g.Cities[c.City].Name == "Tulsa" {
			foundTulsa = true
		}
	}
	if !foundTulsa {
		t.Errorf("hidden-node inference missed Tulsa; candidates: %v", candNames(g, cands))
	}
	// Distance cost: the routed path is materially longer than the shortest
	// practical path (paper: 1.96).
	_, _, cost, ok := p.DistanceCost(ta.CitySeq)
	if !ok {
		t.Fatal("distance cost unavailable")
	}
	if cost < 1.2 {
		t.Errorf("distance cost = %.2f, want >= 1.2 (inflated route)", cost)
	}
}

func candNames(g *core.IGDB, cands []HiddenCandidate) []string {
	var out []string
	for _, c := range cands {
		out = append(out, g.Cities[c.City].Name)
	}
	return out
}

func TestFigure9MadridBerlin(t *testing.T) {
	w, g, p := fixture(t)
	m, ok := measurementBetween(w, p, "Madrid", "Berlin")
	if !ok {
		t.Fatal("reference Madrid→Berlin measurement missing")
	}
	ta := p.AnalyzeTrace(m)
	// Three ASes, as in the paper.
	asSet := map[int]bool{}
	for _, asn := range ta.ASPath {
		asSet[asn] = true
	}
	for _, want := range []int{12008, 22822, 20647} {
		if !asSet[want] {
			t.Errorf("AS path %v missing AS%d", ta.ASPath, want)
		}
	}
	// Five metros along the path (Madrid, Paris, Frankfurt, Duesseldorf,
	// Berlin).
	var names []string
	for _, c := range ta.CitySeq {
		names = append(names, g.Cities[c].Name)
	}
	want := []string{"Madrid", "Paris", "Frankfurt", "Duesseldorf", "Berlin"}
	if !equalStrings(names, want) {
		t.Errorf("metro sequence = %v, want %v", names, want)
	}
	// Countries traversed: 3 (ES, FR, DE).
	countries := map[string]bool{}
	for _, c := range ta.CitySeq {
		countries[g.Cities[c].Country] = true
	}
	if len(countries) != 3 {
		t.Errorf("countries = %d, want 3", len(countries))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBeliefPropagationAccuracy(t *testing.T) {
	w, g, p := fixture(t)
	known := p.KnownLocations()
	if len(known) == 0 {
		t.Fatal("no seed locations")
	}
	obs := p.Observations()
	inferred := geoloc.Propagate(obs, known, geoloc.Options{})
	if len(inferred) == 0 {
		t.Fatal("belief propagation inferred nothing")
	}
	// Score against ground truth: every IP belongs to a router/anchor/hop
	// whose true city worldgen knows.
	truth := map[uint32]int{}
	for _, tr := range w.Traces {
		for _, h := range tr.Hops {
			truth[h.IP] = h.City
		}
	}
	correct, total := 0, 0
	for ip, inf := range inferred {
		want, ok := truth[ip]
		if !ok {
			continue
		}
		total++
		if g.Cities[inf.City].Name == w.Cities[want].Name {
			correct++
		}
	}
	if total < 10 {
		t.Fatalf("only %d scored inferences", total)
	}
	if acc := float64(correct) / float64(total); acc < 0.7 {
		t.Errorf("belief propagation accuracy %.3f (%d/%d), want >= 0.7", acc, correct, total)
	}
}

func TestBeliefPropagationConsistencyWithHoiho(t *testing.T) {
	_, _, p := fixture(t)
	// Withhold Hoiho locations from the seed set, propagate from anchors +
	// IXP prefixes only, then compare the overlap — the paper's 86% check.
	seed := make(map[uint32]int)
	hoihoLoc := make(map[uint32]int)
	for _, m := range p.Measurements {
		for _, h := range m.Hops {
			addr, err := iptrie.ParseAddr(h.IP)
			if err != nil {
				continue
			}
			if c, src, ok := p.Geolocate(addr); ok {
				if src == "hoiho" {
					hoihoLoc[addr] = c
				} else {
					seed[addr] = c
				}
			}
		}
	}
	if len(hoihoLoc) == 0 {
		t.Skip("no hoiho-only locations in this world")
	}
	inferred := geoloc.Propagate(p.Observations(), seed, geoloc.Options{})
	agree, total := geoloc.Consistency(inferred, hoihoLoc)
	if total == 0 {
		t.Skip("no overlap between BP inferences and hoiho")
	}
	if frac := float64(agree) / float64(total); frac < 0.6 {
		t.Errorf("BP/hoiho consistency %.2f (%d/%d), want >= 0.6", frac, agree, total)
	}
}

func TestInferredRouteFallsBackToGreatCircle(t *testing.T) {
	_, g, p := fixture(t)
	// Two metros with no physical route still produce a geometry.
	a := g.CityByName("Sydney", "", "AU")
	b := g.CityByName("Lima", "", "PE")
	if a < 0 || b < 0 {
		t.Skip("cities missing")
	}
	geom, km := p.InferredRoute([]int{a, b})
	if len(geom) < 2 || km <= 0 {
		t.Errorf("fallback route empty: %d points, %.0f km", len(geom), km)
	}
}

func TestDistanceCostDegenerate(t *testing.T) {
	_, _, p := fixture(t)
	if _, _, _, ok := p.DistanceCost(nil); ok {
		t.Error("empty sequence should not score")
	}
	if _, _, _, ok := p.DistanceCost([]int{3}); ok {
		t.Error("single metro should not score")
	}
}

// Analyses runs once and shares its result; each entry is what
// AnalyzeTrace returns for that measurement, and each observation holds
// the parsed hop IPs, their RTTs and bdrmap's attribution of them.
func TestAnalysesRunOnce(t *testing.T) {
	_, _, f := fixture(t)
	// A pipeline of its own, so its first Analyses call is this test's.
	p := &Pipeline{G: f.G, Mapper: f.Mapper, Hoiho: f.Hoiho, PTR: f.PTR,
		Measurements: f.Measurements, AnchorCity: f.AnchorCity, AnchorByID: f.AnchorByID,
		anchorCityID: f.anchorCityID, ixpTrie: f.ixpTrie}
	firsts := make([]*TraceAnalysis, 4)
	var wg sync.WaitGroup
	for i := range firsts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			firsts[i] = &p.Analyses()[0]
		}(i)
	}
	wg.Wait()
	as, obs := p.Analyses(), p.Observations()
	for _, first := range firsts {
		if first != &as[0] {
			t.Fatal("concurrent Analyses calls analyzed more than once")
		}
	}
	if len(as) != len(p.Measurements) || len(obs) != len(p.Measurements) {
		t.Fatalf("%d analyses, %d observations for %d measurements", len(as), len(obs), len(p.Measurements))
	}
	for i, m := range p.Measurements {
		if !reflect.DeepEqual(as[i], p.AnalyzeTrace(m)) {
			t.Fatalf("measurement %d: shared analysis differs from AnalyzeTrace", i)
		}
		var ips []uint32
		var rtts []float64
		for _, h := range m.Hops {
			if addr, err := iptrie.ParseAddr(h.IP); err == nil {
				ips = append(ips, addr)
				rtts = append(rtts, h.RTT)
			}
		}
		want := geoloc.Observation{IPs: ips, RTTs: rtts, ASNs: p.Mapper.MapTrace(ips, p.PTR)}
		if fmt.Sprint(obs[i]) != fmt.Sprint(want) {
			t.Fatalf("measurement %d: observation %+v, want %+v", i, obs[i], want)
		}
	}
}
