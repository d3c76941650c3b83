// Package worldgen synthesizes a deterministic miniature Internet — cities,
// countries, rights-of-way networks, ISPs with PoPs, an AS topology, IXPs,
// submarine cables, RIPE-Atlas-style anchors and traceroute meshes — that
// stands in for the live data sources the iGDB paper scrapes (Internet
// Atlas, PeeringDB, Telegeography, PCH, Hurricane Electric, EuroIX, Rapid7
// rDNS, AS Rank, RIPE Atlas).
//
// The generated world embeds the real entities the paper's evaluation names
// (the Figure 7 Kansas City→Atlanta corridor, the Figure 9 Madrid→Berlin
// traceroute ASes, the Cox/Charter footprints of Figure 6, Table 2's
// country-footprint ranking) so the reproduction reports the same entities,
// and grows a synthetic long tail around them sized to Table 1. Ground
// truth (true router locations, MPLS-hidden hops, remote-peering homes) is
// retained so inference accuracy can be scored, which the paper could not
// do against the live Internet.
package worldgen

import (
	"math/rand"

	"igdb/internal/geo"
	"igdb/internal/iptrie"
)

// Config sizes the synthetic world. The zero value is unusable; use
// DefaultConfig (paper scale) or SmallConfig (test scale).
type Config struct {
	Seed int64

	NumCities    int // urban areas (paper: 7,342 Natural Earth places)
	NumCountries int // paper: 210 countries with physical nodes

	NumASNs          int // total ASNs in the AS graph (paper: 102,216)
	NumISPs          int // infrastructure ASes with PoPs/routers
	NumAtlasNetworks int // subset of ISPs documented in Internet Atlas (~1.5K)
	NumIXPs          int
	NumCables        int // submarine cables (paper: 511)
	NumAnchors       int // RIPE-Atlas-style anchors
	TraceroutePairs  int // sampled anchor pairs for the mesh

	// MPLSHiddenFraction is the probability an MPLS-enabled transit AS hides
	// its interior hops from traceroute.
	MPLSHiddenFraction float64
	// RDNSCoverage is the fraction of router IPs with PTR records (paper
	// observes 64%).
	RDNSCoverage float64
	// GeohintFraction is the fraction of resolving hostnames carrying a
	// parseable location code (paper observes 14%).
	GeohintFraction float64
	// RemotePeerFraction is the fraction of IXP participants peering
	// remotely (virtual presence).
	RemotePeerFraction float64
}

// DefaultConfig is paper-scale: slow to generate but matches Table 1's
// orders of magnitude.
func DefaultConfig() Config {
	return Config{
		Seed:               42,
		NumCities:          7342,
		NumCountries:       210,
		NumASNs:            102216,
		NumISPs:            4000,
		NumAtlasNetworks:   1500,
		NumIXPs:            700,
		NumCables:          511,
		NumAnchors:         700,
		TraceroutePairs:    4000,
		MPLSHiddenFraction: 0.65,
		RDNSCoverage:       0.64,
		GeohintFraction:    0.14,
		RemotePeerFraction: 0.18,
	}
}

// SmallConfig is test-scale: generates in milliseconds while preserving all
// structural properties.
func SmallConfig() Config {
	return Config{
		Seed:               42,
		NumCities:          600,
		NumCountries:       60,
		NumASNs:            3000,
		NumISPs:            300,
		NumAtlasNetworks:   150,
		NumIXPs:            60,
		NumCables:          40,
		NumAnchors:         80,
		TraceroutePairs:    400,
		MPLSHiddenFraction: 0.65,
		RDNSCoverage:       0.64,
		GeohintFraction:    0.30,
		RemotePeerFraction: 0.18,
	}
}

// Continent is a coarse landmass model used to place synthetic cities.
type Continent struct {
	Name     string
	Center   geo.Point
	RadiusKm float64
}

// City is one urban area; the first len(gazetteer) entries are real cities.
type City struct {
	ID         int
	Name       string
	State      string
	Country    string // 2-letter code
	Continent  int
	Loc        geo.Point
	Population int // thousands
	Coastal    bool
	Real       bool
}

// Country is a national territory hosting cities.
type Country struct {
	Code      string
	Name      string
	Continent int
}

// RoadEdge is one right-of-way segment (road or rail) between two cities.
type RoadEdge struct {
	A, B     int // city IDs
	Path     []geo.Point
	LengthKm float64
	Kind     string // "road" or "rail"
}

// AS is one autonomous system. NamesBySource/OrgsBySource carry the
// deliberately inconsistent per-source labels (§3.2's AS2686 example).
type AS struct {
	ASN           int
	NamesBySource map[string]string // "asrank", "peeringdb"
	OrgsBySource  map[string]string // "asrank", "peeringdb", "pch"
	Tier          int               // 1 = global transit, 2 = regional, 3 = stub
	ISP           int               // index into World.ISPs, -1 for non-infrastructure ASes
	Prefixes      []iptrie.Prefix
	HomeCountry   string
	Real          bool
}

// ASLink is one AS-level adjacency.
type ASLink struct {
	A, B int    // ASNs
	Kind string // "p2c" (A provider of B) or "p2p"
}

// ISP is an infrastructure network: an AS that operates PoPs and routers.
type ISP struct {
	ID      int
	ASN     int
	Name    string // network name as it appears in Internet Atlas
	POPs    []int  // city IDs with point of presence
	Links   [][2]int
	InAtlas bool // documented in the Internet Atlas dataset
	// Dark networks publish nothing declarative: no PeeringDB record, no
	// IXP membership, no Atlas entry. They are only discoverable through
	// measurements — the paper's §4.4 "177 ASes with no known geographic
	// locations" scenario.
	Dark   bool
	MPLS   bool   // interior hops hidden from traceroute
	Domain string // rDNS domain; "" = no reverse DNS for its routers
	Scheme HostScheme
	Real   bool
	// declared flags which POPs are published to declarative sources
	// (PeeringDB, Atlas); see DeclaredPOPs.
	declared []bool
}

// IXPMember records one AS present at an exchange. Remote members peer
// virtually; TrueCity is the ground-truth location of their equipment.
type IXPMember struct {
	ASN      int
	Remote   bool
	TrueCity int
	IP       uint32 // address on the IXP peering LAN
}

// IXP is one Internet exchange point.
type IXP struct {
	ID      int
	Name    string
	City    int
	Prefix  iptrie.Prefix
	Members []IXPMember
	// Euro reports whether the IXP appears in the EuroIX feed.
	Euro bool
}

// Cable is one submarine cable with its landing cities and geometry.
type Cable struct {
	Name     string
	Landings []int // city IDs (coastal)
	Path     []geo.Point
	Owners   []string
	LengthKm float64
}

// Anchor is a measurement vantage point (RIPE-Atlas-anchor-like).
type Anchor struct {
	ID   int
	City int
	ASN  int
	IP   uint32
}

// Hop is one traceroute hop.
type Hop struct {
	IP       uint32
	RTTms    float64
	ASN      int // ground truth owner
	City     int // ground truth location
	Hidden   bool
	Hostname string // "" when no PTR record exists
}

// Traceroute is one measured path. Hops with Hidden=true exist physically
// (MPLS interior) and are exposed only as ground truth, never to the
// measurement consumer.
type Traceroute struct {
	SrcAnchor, DstAnchor int
	Hops                 []Hop
}

// Router is a ground-truth network device: one per (ASN, city) pair that
// traffic traverses.
type Router struct {
	ID       int
	ASN      int
	City     int
	IP       uint32
	Hostname string // "" = no PTR record
	Geohint  bool   // hostname carries a parseable location code
}

// World is the full synthetic ground truth.
type World struct {
	Cfg        Config
	Continents []Continent
	Cities     []City
	Countries  []Country
	Roads      []RoadEdge
	ASes       []AS
	ASLinks    []ASLink
	ISPs       []ISP
	IXPs       []IXP
	Cables     []Cable
	Anchors    []Anchor
	Routers    []Router
	Traces     []Traceroute

	// BorderPTR maps borrowed inter-AS link addresses (numbered from the
	// neighbour's space) to the PTR hostname of the router that actually
	// answers — the ambiguity bdrmap has to resolve.
	BorderPTR map[uint32]string

	cityByName  map[string]int
	asByASN     map[int]int
	routerByKey map[[2]int]int // (asn, city) -> router index
	cityCodes   []string
	ipNext      map[int]uint32
	borderIP    map[[2]int]uint32
	metroIPs    map[int][]uint32
	ixpIPByKey  map[[2]int]uint32
}

// BorderOwner returns the ground-truth ASN of a borrowed border address,
// or -1 if the address is not a borrowed one.
func (w *World) BorderOwner(ip uint32) int {
	for key, v := range w.borderIP {
		if v == ip {
			return w.Routers[key[1]].ASN
		}
	}
	return -1
}

// CityID returns the city with the given name, or -1.
func (w *World) CityID(name string) int {
	if id, ok := w.cityByName[name]; ok {
		return id
	}
	return -1
}

// ASByNumber returns the AS with the given ASN, or nil.
func (w *World) ASByNumber(asn int) *AS {
	if i, ok := w.asByASN[asn]; ok {
		return &w.ASes[i]
	}
	return nil
}

// RouterAt returns the ground-truth router for (asn, city), or nil.
func (w *World) RouterAt(asn, city int) *Router {
	if i, ok := w.routerByKey[[2]int{asn, city}]; ok {
		return &w.Routers[i]
	}
	return nil
}

// Generate builds the world deterministically from cfg.Seed.
func Generate(cfg Config) *World {
	w := &World{
		Cfg:         cfg,
		cityByName:  make(map[string]int),
		asByASN:     make(map[int]int),
		routerByKey: make(map[[2]int]int),
	}
	// Separate streams per stage keep downstream stages stable when one
	// stage's draw count changes.
	w.genGeography(rand.New(rand.NewSource(cfg.Seed)))
	w.genInternet(rand.New(rand.NewSource(cfg.Seed + 1)))
	w.genTraceroutes(rand.New(rand.NewSource(cfg.Seed + 2)))
	return w
}
