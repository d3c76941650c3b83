package worldgen

import (
	"math"
	"math/rand"
	"sort"

	"igdb/internal/geo"
	"igdb/internal/graph"
	"igdb/internal/spatial"
)

// continents is the coarse landmass model. Synthetic cities are scattered
// around population clusters inside these discs.
var continents = []Continent{
	{Name: "North America", Center: geo.Point{Lon: -98, Lat: 42}, RadiusKm: 3300},
	{Name: "South America", Center: geo.Point{Lon: -60, Lat: -16}, RadiusKm: 2800},
	{Name: "Europe", Center: geo.Point{Lon: 14, Lat: 49}, RadiusKm: 2300},
	{Name: "Africa", Center: geo.Point{Lon: 19, Lat: 4}, RadiusKm: 3400},
	{Name: "Asia", Center: geo.Point{Lon: 95, Lat: 34}, RadiusKm: 4400},
	{Name: "Oceania", Center: geo.Point{Lon: 140, Lat: -27}, RadiusKm: 2600},
}

// landBridges are city pairs whose continents connect over land.
var landBridges = [][2]string{
	{"Istanbul", "Tel Aviv"},
	{"Cairo", "Tel Aviv"},
	{"Panama City", "Bogota"},
	{"Mexico City", "Panama City"},
	{"Moscow", "Beijing"},
	{"Casablanca", "Cairo"},
}

func nearestContinent(p geo.Point) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range continents {
		if d := geo.Haversine(p, c.Center); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

var nameSyllables = []string{
	"al", "an", "ar", "bel", "bor", "cal", "dan", "dor", "el", "far", "gar",
	"hol", "is", "jor", "kal", "lan", "mar", "nor", "or", "pel", "quin",
	"ras", "sol", "tar", "ul", "ver", "wes", "yor", "zan", "mor", "ken",
	"lin", "sta", "tri", "val",
}

func synthName(r *rand.Rand, taken map[string]bool) string {
	// 2-4 syllables gives ~1.5M distinct names, far above any Config's
	// demand; retries resolve residual collisions quickly.
	for attempt := 0; ; attempt++ {
		n := 2 + r.Intn(3)
		if attempt > 4 {
			n = 4
		}
		name := ""
		for i := 0; i < n; i++ {
			name += nameSyllables[r.Intn(len(nameSyllables))]
		}
		name = string(name[0]-'a'+'A') + name[1:]
		if !taken[name] {
			taken[name] = true
			return name
		}
	}
}

// genGeography creates cities, countries and right-of-way networks.
func (w *World) genGeography(r *rand.Rand) {
	w.Continents = continents
	taken := make(map[string]bool)

	// 1. Embed the real gazetteer cities.
	for _, g := range gazetteer {
		c := City{
			ID:         len(w.Cities),
			Name:       g.name,
			State:      g.state,
			Country:    g.country,
			Loc:        geo.Point{Lon: g.lon, Lat: g.lat},
			Population: g.popK,
			Coastal:    g.coastal,
			Real:       true,
		}
		c.Continent = nearestContinent(c.Loc)
		w.cityByName[c.Name] = c.ID
		taken[c.Name] = true
		w.Cities = append(w.Cities, c)
	}

	// 2. Country list: real codes first, then synthetic to reach the target.
	realCodes := make([]string, 0, len(realCountryNames))
	for code := range realCountryNames {
		realCodes = append(realCodes, code)
	}
	sort.Strings(realCodes)
	countryCont := make(map[string]int)
	countryCenter := make(map[string]geo.Point)
	countryN := make(map[string]int)
	for _, c := range w.Cities {
		countryN[c.Country]++
		cc := countryCenter[c.Country]
		cc.Lon += c.Loc.Lon
		cc.Lat += c.Loc.Lat
		countryCenter[c.Country] = cc
	}
	for _, code := range realCodes {
		n := countryN[code]
		if n == 0 {
			continue
		}
		cc := countryCenter[code]
		countryCenter[code] = geo.Point{Lon: cc.Lon / float64(n), Lat: cc.Lat / float64(n)}
		countryCont[code] = nearestContinent(countryCenter[code])
		w.Countries = append(w.Countries, Country{Code: code, Name: realCountryNames[code], Continent: countryCont[code]})
	}
	codeTaken := make(map[string]bool)
	for _, c := range w.Countries {
		codeTaken[c.Code] = true
	}
	for len(w.Countries) < w.Cfg.NumCountries {
		// Synthetic country: pick a continent weighted by size, place its
		// center inside the disc.
		cont := r.Intn(len(continents))
		code := ""
		for {
			code = string(rune('A'+r.Intn(26))) + string(rune('A'+r.Intn(26)))
			if !codeTaken[code] {
				codeTaken[code] = true
				break
			}
		}
		center := randomInContinent(r, cont, 0.9)
		name := synthName(r, taken) + "ia"
		w.Countries = append(w.Countries, Country{Code: code, Name: name, Continent: cont})
		countryCenter[code] = center
		countryCont[code] = cont
	}

	// 3. Synthetic cities: scattered around population clusters, each
	// assigned to the nearest country center on its continent.
	type seed struct {
		code string
		p    geo.Point
		cont int
	}
	var seeds []seed
	for code, p := range countryCenter {
		seeds = append(seeds, seed{code: code, p: p, cont: countryCont[code]})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].code < seeds[j].code })

	contWeights := []float64{0.22, 0.10, 0.24, 0.12, 0.24, 0.08}
	for len(w.Cities) < w.Cfg.NumCities {
		cont := weightedContinent(r, contWeights)
		p := randomInContinent(r, cont, 1.0)
		// Nearest country seed on the same continent.
		bestCode, bestD := "", math.Inf(1)
		for _, s := range seeds {
			if s.cont != cont {
				continue
			}
			if d := geo.Haversine(p, s.p); d < bestD {
				bestCode, bestD = s.code, d
			}
		}
		if bestCode == "" {
			continue
		}
		c := City{
			ID:         len(w.Cities),
			Name:       synthName(r, taken),
			Country:    bestCode,
			Continent:  cont,
			Loc:        p,
			Population: 15 + int(math.Exp(r.Float64()*6.5)), // 15k .. ~700k, heavy tail
			Coastal:    r.Float64() < 0.22,
		}
		// US synthetic cities inherit the state of the nearest real US city
		// so state-level grouping stays meaningful.
		if c.Country == "US" {
			c.State = w.nearestRealState(p, "US")
		}
		w.cityByName[c.Name] = c.ID
		w.Cities = append(w.Cities, c)
	}

	w.assignCityCodes()
	w.genRoads(r)
}

// assignCityCodes gives every city a unique 3-letter code, the way
// operators coordinate on unambiguous location codes (IATA-style). The
// natural derivation wins when free; collisions mutate the last letters
// deterministically. Earlier cities (the real gazetteer) keep their natural
// codes.
func (w *World) assignCityCodes() {
	taken := make(map[string]bool, len(w.Cities))
	w.cityCodes = make([]string, len(w.Cities))
	for i, c := range w.Cities {
		code := CityCode(c.Name)
		for attempt := 0; taken[code]; attempt++ {
			b := []byte(code)
			b[2] = 'a' + byte((int(b[2]-'a')+1)%26)
			if attempt > 0 && attempt%26 == 0 {
				b[1] = 'a' + byte((int(b[1]-'a')+1)%26)
			}
			if attempt > 26*26 {
				b[0] = 'a' + byte((int(b[0]-'a')+1)%26)
			}
			code = string(b)
		}
		taken[code] = true
		w.cityCodes[i] = code
	}
}

// CityCodeOf returns the unique location code assigned to a city.
func (w *World) CityCodeOf(id int) string {
	if id < 0 || id >= len(w.cityCodes) {
		return "xxx"
	}
	return w.cityCodes[id]
}

func (w *World) nearestRealState(p geo.Point, country string) string {
	best, bestD := "", math.Inf(1)
	for _, c := range w.Cities {
		if !c.Real || c.Country != country || c.State == "" {
			continue
		}
		if d := geo.Haversine(p, c.Loc); d < bestD {
			best, bestD = c.State, d
		}
	}
	return best
}

func weightedContinent(r *rand.Rand, weights []float64) int {
	x := r.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// randomInContinent samples a point inside the continent disc (scaled by
// frac), biased toward the center where populations cluster.
func randomInContinent(r *rand.Rand, cont int, frac float64) geo.Point {
	c := continents[cont]
	dist := c.RadiusKm * frac * math.Sqrt(r.Float64()) * (0.55 + 0.45*r.Float64())
	bearing := r.Float64() * 360
	p := geo.Destination(c.Center, bearing, dist)
	if p.Lat > 72 {
		p.Lat = 72 - r.Float64()*5
	}
	if p.Lat < -55 {
		p.Lat = -55 + r.Float64()*5
	}
	return p
}

// genRoads builds the right-of-way graph: per continent, each city connects
// to its nearest neighbours, augmented to connectivity, plus intercity
// trunk corridors and rail along a subset.
func (w *World) genRoads(r *rand.Rand) {
	type edgeKey [2]int
	seen := make(map[edgeKey]bool)
	addEdge := func(a, b int, kind string) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		k := edgeKey{a, b}
		if seen[k] {
			return
		}
		seen[k] = true
		pa, pb := w.Cities[a].Loc, w.Cities[b].Loc
		path := jitteredPath(r, pa, pb)
		w.Roads = append(w.Roads, RoadEdge{
			A: a, B: b,
			Path:     path,
			LengthKm: geo.PathLengthKm(path),
			Kind:     kind,
		})
	}

	for cont := range continents {
		var ids []int
		for _, c := range w.Cities {
			if c.Continent == cont {
				ids = append(ids, c.ID)
			}
		}
		if len(ids) < 2 {
			continue
		}
		entries := make([]spatial.Entry, len(ids))
		for i, id := range ids {
			entries[i] = spatial.Entry{P: w.Cities[id].Loc, ID: id}
		}
		tree := spatial.NewKDTree(entries)
		// k-nearest-neighbour edges.
		for _, id := range ids {
			for _, res := range tree.KNearest(w.Cities[id].Loc, 4)[1:] {
				addEdge(id, res.Entry.ID, "road")
			}
		}
		// Trunk corridors between the continent's largest cities.
		big := append([]int(nil), ids...)
		sort.Slice(big, func(i, j int) bool {
			return w.Cities[big[i]].Population > w.Cities[big[j]].Population
		})
		nBig := len(big) / 10
		if nBig < 4 {
			nBig = min(4, len(big))
		}
		big = big[:nBig]
		for i, id := range big {
			for t := 0; t < 2; t++ {
				other := big[r.Intn(len(big))]
				if other != id {
					kind := "road"
					if (i+t)%3 == 0 {
						kind = "rail"
					}
					addEdge(id, other, kind)
				}
			}
		}
		// Stitch any disconnected components.
		w.connectComponents(ids, addEdge)
	}

	// Land bridges across continents.
	for _, b := range landBridges {
		a, ok1 := w.cityByName[b[0]]
		c, ok2 := w.cityByName[b[1]]
		if ok1 && ok2 {
			addEdge(a, c, "road")
		}
	}
}

// connectComponents links disconnected road components within one continent
// by joining the geographically closest city pairs.
func (w *World) connectComponents(ids []int, addEdge func(a, b int, kind string)) {
	idPos := make(map[int]int, len(ids))
	for i, id := range ids {
		idPos[id] = i
	}
	for {
		g := graph.New(len(ids))
		for _, e := range w.Roads {
			ia, aok := idPos[e.A]
			ib, bok := idPos[e.B]
			if aok && bok {
				g.AddUndirected(ia, ib, 1)
			}
		}
		labels, count := g.Components()
		if count <= 1 {
			return
		}
		// Join component 0 to the closest city in any other component.
		bestA, bestB, bestD := -1, -1, math.Inf(1)
		for i, id := range ids {
			if labels[i] != 0 {
				continue
			}
			for j, jd := range ids {
				if labels[j] == 0 {
					continue
				}
				if d := geo.Haversine(w.Cities[id].Loc, w.Cities[jd].Loc); d < bestD {
					bestA, bestB, bestD = id, jd, d
				}
			}
		}
		if bestA < 0 {
			return
		}
		addEdge(bestA, bestB, "road")
	}
}

// jitteredPath produces a plausible road geometry: the great circle with
// perpendicular offsets at interior points.
func jitteredPath(r *rand.Rand, a, b geo.Point) []geo.Point {
	d := geo.Haversine(a, b)
	n := 1 + int(d/250) // a bend every ~250 km
	if n > 8 {
		n = 8
	}
	path := []geo.Point{a}
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n+1)
		mid := geo.Interpolate(a, b, f)
		offset := (r.Float64() - 0.5) * 0.12 * d // up to ±6% of length
		brng := geo.InitialBearing(a, b) + 90
		path = append(path, geo.Destination(mid, brng, offset))
	}
	return append(path, b)
}

// RoadGraph builds a weighted graph over cities from the right-of-way
// edges; useful to callers computing shortest corridors on ground truth.
func (w *World) RoadGraph() *graph.Graph {
	g := graph.New(len(w.Cities))
	for _, e := range w.Roads {
		g.AddUndirected(e.A, e.B, e.LengthKm)
	}
	return g
}
