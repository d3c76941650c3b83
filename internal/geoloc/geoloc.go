// Package geoloc implements the latency-constrained belief propagation of
// §4.4: starting from IPs with known metros (Hoiho geohints, IXP peering
// LANs, anchor addresses), locations flow along traceroute adjacencies —
// when two adjacent hops differ by less than the metro threshold and both
// sit close to the origin, the unknown hop inherits its neighbour's metro.
// Iterating expands the geolocated set, and inferences carry the iteration
// at which they were made so consumers can discard lower-confidence tiers.
package geoloc

import (
	"sort"
)

// Observation is one traceroute's visible hops with RTTs, pre-attributed to
// ASes by bdrmap.
type Observation struct {
	IPs  []uint32
	RTTs []float64
	ASNs []int // -1 where unknown
}

// Options tunes the propagation thresholds; zero values select the paper's
// parameters.
type Options struct {
	// MetroThresholdMs bounds the differential latency between adjacent
	// hops considered co-located (paper: 2 ms).
	MetroThresholdMs float64
	// OriginBoundMs bounds both hops' distance from the traceroute origin
	// (paper: 30 ms).
	OriginBoundMs float64
	// MaxIterations caps propagation rounds; 0 means run to fixpoint.
	MaxIterations int
}

func (o Options) withDefaults() Options {
	if o.MetroThresholdMs == 0 {
		o.MetroThresholdMs = 2.0
	}
	if o.OriginBoundMs == 0 {
		o.OriginBoundMs = 30.0
	}
	return o
}

// Inference is one propagated location.
type Inference struct {
	City      int
	Iteration int // 1-based round in which the location was assigned
	FromIP    uint32
}

// Propagate runs belief propagation. known seeds IP→city; the returned map
// contains only newly inferred IPs.
func Propagate(traces []Observation, known map[uint32]int, opts Options) map[uint32]Inference {
	opts = opts.withDefaults()
	loc := make(map[uint32]int, len(known))
	for ip, c := range known {
		loc[ip] = c
	}
	inferred := make(map[uint32]Inference)
	for iter := 1; ; iter++ {
		if opts.MaxIterations > 0 && iter > opts.MaxIterations {
			break
		}
		// Collect this round's candidate assignments; an IP observed in
		// multiple adjacencies takes the majority metro.
		cand := make(map[uint32]map[int]int)
		candFrom := make(map[[2]interface{}]uint32)
		vote := func(ip uint32, city int, from uint32) {
			if _, have := loc[ip]; have {
				return
			}
			if cand[ip] == nil {
				cand[ip] = make(map[int]int)
			}
			cand[ip][city]++
			candFrom[[2]interface{}{ip, city}] = from
		}
		for _, tr := range traces {
			for i := 0; i+1 < len(tr.IPs); i++ {
				a, b := tr.IPs[i], tr.IPs[i+1]
				ra, rb := tr.RTTs[i], tr.RTTs[i+1]
				if ra > opts.OriginBoundMs || rb > opts.OriginBoundMs {
					continue
				}
				if diff(ra, rb) >= opts.MetroThresholdMs {
					continue
				}
				ca, haveA := loc[a]
				cb, haveB := loc[b]
				switch {
				case haveA && !haveB:
					vote(b, ca, a)
				case haveB && !haveA:
					vote(a, cb, b)
				}
			}
		}
		if len(cand) == 0 {
			break
		}
		ips := make([]uint32, 0, len(cand))
		for ip := range cand {
			ips = append(ips, ip)
		}
		sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
		for _, ip := range ips {
			bestCity, bestN := -1, 0
			for city, n := range cand[ip] {
				if n > bestN || (n == bestN && city < bestCity) {
					bestCity, bestN = city, n
				}
			}
			loc[ip] = bestCity
			inferred[ip] = Inference{
				City:      bestCity,
				Iteration: iter,
				FromIP:    candFrom[[2]interface{}{ip, bestCity}],
			}
		}
	}
	return inferred
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Consistency scores one set of inferences against an independent locator
// (Hoiho or IXP prefixes): the fraction of overlapping IPs that agree —
// the paper reports 86%.
func Consistency(inferred map[uint32]Inference, independent map[uint32]int) (agree, total int) {
	for ip, inf := range inferred {
		want, ok := independent[ip]
		if !ok {
			continue
		}
		total++
		if want == inf.City {
			agree++
		}
	}
	return agree, total
}

// NewTuples aggregates inferences into distinct (city, AS) pairs, given a
// per-IP AS attribution — the §4.4 "2231 new (city-AS) tuples" metric.
func NewTuples(inferred map[uint32]Inference, ipASN map[uint32]int, existing map[[2]int]bool) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for ip, inf := range inferred {
		asn, ok := ipASN[ip]
		if !ok || asn < 0 {
			continue
		}
		key := [2]int{inf.City, asn}
		if existing != nil && existing[key] {
			continue
		}
		out[key] = true
	}
	return out
}
