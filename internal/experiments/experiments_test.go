package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"igdb/internal/worldgen"
)

var (
	envOnce sync.Once
	testEnv *Env
)

func env(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		e, err := NewEnv(worldgen.SmallConfig())
		if err != nil {
			panic(err)
		}
		testEnv = e
	})
	return testEnv
}

// cell finds the value for a row whose first column matches prefix.
func cell(r Result, prefix string) string {
	for _, row := range r.Rows {
		if strings.HasPrefix(row[0], prefix) {
			return row[len(row)-1]
		}
	}
	return ""
}

func cellInt(t *testing.T, r Result, prefix string) int {
	t.Helper()
	s := cell(r, prefix)
	if s == "" {
		t.Fatalf("%s: no row with prefix %q", r.ID, prefix)
	}
	// Accept "123" or "123 (45%)" or "123 km".
	fields := strings.Fields(s)
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		t.Fatalf("%s: row %q value %q is not an int", r.ID, prefix, s)
	}
	return n
}

func TestTable1Shape(t *testing.T) {
	e := env(t)
	r := e.Table1()
	cfg := worldgen.SmallConfig()
	if got := cellInt(t, r, "Number of ASes"); got != cfg.NumASNs {
		t.Errorf("ASes = %d, want %d", got, cfg.NumASNs)
	}
	if got := cellInt(t, r, "Number of physical nodes"); got <= 0 {
		t.Error("no physical nodes")
	}
	if got := cellInt(t, r, "Number of inferred physical paths"); got <= 0 {
		t.Error("no inferred paths")
	}
	if got := cellInt(t, r, "Number of submarine cables"); got <= 0 {
		t.Error("no cables")
	}
	if got := cellInt(t, r, "Number of countries with nodes"); got < 20 {
		t.Errorf("countries = %d, suspiciously low", got)
	}
}

func TestTable2Shape(t *testing.T) {
	e := env(t)
	r := e.Table2()
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(r.Rows))
	}
	// Non-increasing country counts; leader is one of the planted tier-1s.
	prev := 1 << 30
	for _, row := range r.Rows {
		n, err := strconv.Atoi(row[3])
		if err != nil || n > prev {
			t.Fatalf("country column not sorted: %v", r.Rows)
		}
		prev = n
	}
	leader, _ := strconv.Atoi(r.Rows[0][0])
	want := map[int]bool{13335: true, 6939: true, 8075: true, 174: true, 3356: true, 16509: true, 42473: true, 1299: true}
	if !want[leader] {
		t.Errorf("leader AS%d is not one of the planted global networks", leader)
	}
	// Cloudflare appears in the table (it has the largest planted footprint).
	saw13335 := false
	for _, row := range r.Rows {
		if row[0] == "13335" {
			saw13335 = true
		}
	}
	if !saw13335 {
		t.Error("AS13335 missing from the top-11")
	}
}

func TestTable3FindsPlantedCities(t *testing.T) {
	e := env(t)
	r := e.Table3()
	if len(r.Rows) == 0 {
		t.Fatal("no missing locations recovered")
	}
	got := map[string]bool{}
	for _, row := range r.Rows {
		got[row[1]] = true
		if !strings.Contains(row[0], "cogentco.com") {
			t.Errorf("hostname %q is not a Cogent name", row[0])
		}
	}
	// At least some planted metros must be recovered (which ones appear
	// depends on mesh sampling).
	planted := []string{"Dresden-DE", "Syracuse-US", "Hong Kong-HK", "Orlando-US", "Katowice-PL", "Jacksonville-US"}
	found := 0
	for _, p := range planted {
		if got[p] {
			found++
		}
	}
	if found == 0 {
		t.Errorf("none of the planted Table 3 metros recovered; got %v", got)
	}
}

// TestTable3Deterministic: when several hostnames vote for one missing
// metro, the row must not depend on map iteration order. Seed 661263145210
// has such ties; repeated calls on one Env must agree row for row.
func TestTable3Deterministic(t *testing.T) {
	cfg := worldgen.SmallConfig()
	cfg.Seed = 661263145210
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := e.Table3()
	for i := 1; i < 30; i++ {
		if got := e.Table3(); !reflect.DeepEqual(got.Rows, first.Rows) {
			t.Fatalf("call %d: rows differ from the first call:\nfirst: %v\ngot:   %v", i, first.Rows, got.Rows)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	e := env(t)
	r := e.Figure3()
	if got := cellInt(t, r, "polygons"); got < len(e.G.Cities)-5 {
		t.Errorf("polygons = %d", got)
	}
	if len(r.Artifacts["figure3_thiessen.svg"]) == 0 {
		t.Error("missing SVG artifact")
	}
}

func TestFigure4Shape(t *testing.T) {
	e := env(t)
	r := e.Figure4()
	totalROW := cellInt(t, r, "InterTubes links along transportation ROW")
	matchedROW := cellInt(t, r, "... approximated")
	if totalROW == 0 {
		t.Fatal("no road-following InterTubes links")
	}
	frac := float64(matchedROW) / float64(totalROW)
	if frac < 0.6 {
		t.Errorf("only %.0f%% of road-following links approximated, want >= 60%%", 100*frac)
	}
	// Pipeline links mostly NOT approximated (paper's key observation).
	totalPipe := cellInt(t, r, "InterTubes links along other ROW")
	rows := r.Rows
	matchedPipe, _ := strconv.Atoi(rows[3][1])
	if totalPipe > 0 && matchedPipe == totalPipe {
		t.Error("every pipeline link approximated — the non-road ROW effect vanished")
	}
	if got := cellInt(t, r, "iGDB corridors with no InterTubes counterpart"); got == 0 {
		t.Error("no unused alternate corridors")
	}
	if len(r.Artifacts["figure4_intertubes.svg"]) == 0 {
		t.Error("missing SVG artifact")
	}
}

func TestFigure5Shape(t *testing.T) {
	e := env(t)
	r := e.Figure5()
	for _, metric := range []string{"physical nodes", "inferred terrestrial paths", "submarine cables"} {
		if got := cellInt(t, r, metric); got <= 0 {
			t.Errorf("%s = %d", metric, got)
		}
	}
	if len(r.Artifacts["figure5_physical_map.svg"]) == 0 {
		t.Error("missing SVG artifact")
	}
}

func TestFigure6ExactCounts(t *testing.T) {
	e := env(t)
	r := e.Figure6()
	if got := cellInt(t, r, "Cox Communications"); got != 30 {
		t.Errorf("Cox metros = %d, want 30", got)
	}
	if got := cellInt(t, r, "Charter Communications"); got != 71 {
		t.Errorf("Charter metros = %d, want 71", got)
	}
	if got := cellInt(t, r, "Overlapping metros"); got != 10 {
		t.Errorf("overlap = %d, want 10", got)
	}
}

func TestFigure7Shape(t *testing.T) {
	e := env(t)
	r := e.Figure7()
	seq := cell(r, "visible metro sequence")
	if !strings.Contains(seq, "Kansas City") || !strings.Contains(seq, "Atlanta") {
		t.Errorf("metro sequence = %q", seq)
	}
	if strings.Contains(seq, "Tulsa") {
		t.Error("Tulsa should be hidden from the visible sequence")
	}
	cands := cell(r, "hidden-node candidates")
	if !strings.Contains(cands, "Tulsa") {
		t.Errorf("candidates %q missing Tulsa", cands)
	}
	costStr := cell(r, "distance cost")
	cost, err := strconv.ParseFloat(costStr, 64)
	if err != nil || cost < 1.2 {
		t.Errorf("distance cost = %q, want >= 1.2", costStr)
	}
	if len(r.Artifacts["figure7_kc_atlanta.svg"]) == 0 {
		t.Error("missing SVG artifact")
	}
}

func TestFigure8Shape(t *testing.T) {
	e := env(t)
	r := e.Figure8()
	logical := cellInt(t, r, "Rocketfuel logical edges")
	corridors := cellInt(t, r, "distinct physical corridors")
	if logical == 0 || corridors == 0 {
		t.Fatalf("logical=%d corridors=%d", logical, corridors)
	}
	sharing, err := strconv.ParseFloat(cell(r, "sharing factor"), 64)
	if err != nil || sharing <= 1.0 {
		t.Errorf("sharing factor = %v, want > 1 (corridor collapse)", sharing)
	}
	if len(r.Artifacts["figure8_rocketfuel.svg"]) == 0 {
		t.Error("missing SVG artifact")
	}
}

func TestFigure9Shape(t *testing.T) {
	e := env(t)
	r := e.Figure9()
	if got := cellInt(t, r, "ASes on path"); got != 3 {
		// value column is "Measured"; row has 3 columns
		for _, row := range r.Rows {
			if row[0] == "ASes on path" && row[1] != "3" {
				t.Errorf("ASes on path = %s, want 3", row[1])
			}
		}
	}
	for _, row := range r.Rows {
		switch row[0] {
		case "metros on path":
			if row[1] != "5" {
				t.Errorf("metros = %s, want 5", row[1])
			}
		case "countries traversed":
			if row[1] != "3" {
				t.Errorf("countries = %s, want 3", row[1])
			}
		}
	}
	if len(r.Artifacts["figure9_madrid_berlin.svg"]) == 0 {
		t.Error("missing SVG artifact")
	}
}

func TestFigure10Shape(t *testing.T) {
	e := env(t)
	r := e.Figure10()
	occupied := cellInt(t, r, "cells with >= 1 node")
	total := cellInt(t, r, "cells in tessellation")
	if occupied <= 0 || occupied > total {
		t.Fatalf("occupied=%d total=%d", occupied, total)
	}
	// Most occupied cells hold fewer than 10 nodes (paper's CDF shape).
	under10 := cellInt(t, r, "cells with < 10 nodes")
	if float64(under10)/float64(occupied) < 0.5 {
		t.Errorf("only %d/%d cells under 10 nodes", under10, occupied)
	}
	if len(r.Artifacts["figure10_cdf.svg"]) == 0 || len(r.Artifacts["figure10_density.svg"]) == 0 {
		t.Error("missing artifacts")
	}
}

func TestSection44Shape(t *testing.T) {
	e := env(t)
	r := e.Section44()
	if got := cellInt(t, r, "IPs newly geolocated by BP"); got <= 0 {
		t.Error("BP inferred nothing")
	}
	if got := cellInt(t, r, "new (city, AS) tuples"); got <= 0 {
		t.Error("no new tuples")
	}
	resolved := cellInt(t, r, "IPs resolving via rDNS")
	observed := cellInt(t, r, "observed traceroute IPs")
	if resolved == 0 || resolved >= observed {
		t.Errorf("rDNS resolution %d/%d should be partial", resolved, observed)
	}
	// Ground-truth accuracy is reported and reasonable.
	acc := cell(r, "BP accuracy vs ground truth")
	n, err := strconv.Atoi(strings.TrimSuffix(acc, "%"))
	if err != nil || n < 60 {
		t.Errorf("BP accuracy = %q, want >= 60%%", acc)
	}
}

func TestAllRuns(t *testing.T) {
	e := env(t)
	results := e.All()
	if len(results) != 12 {
		t.Fatalf("All returned %d results, want 12", len(results))
	}
	seen := map[string]bool{}
	for i, r := range results {
		if r.ID == "" || r.Title == "" {
			t.Errorf("result missing identity: %+v", r)
		}
		if id := Experiments()[i].ID; r.ID != id {
			t.Errorf("experiment %s returned a result with ID %s", id, r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
	}
}
