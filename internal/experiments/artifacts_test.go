package experiments

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"strings"
	"testing"
)

// Every figure artifact must be well-formed XML (SVG) or JSON (GeoJSON) —
// the whole point of the artifacts is to open them in external tools.
func TestArtifactsWellFormed(t *testing.T) {
	e := env(t)
	for _, r := range e.All() {
		for name, data := range r.Artifacts {
			switch {
			case strings.HasSuffix(name, ".svg"):
				dec := xml.NewDecoder(strings.NewReader(string(data)))
				for {
					_, err := dec.Token()
					if err != nil {
						if err.Error() == "EOF" {
							break
						}
						t.Fatalf("%s/%s: malformed SVG: %v", r.ID, name, err)
					}
				}
				if !strings.Contains(string(data), "<svg") {
					t.Errorf("%s/%s: not an SVG", r.ID, name)
				}
			case strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".geojson"):
				var v interface{}
				if err := json.Unmarshal(data, &v); err != nil {
					t.Fatalf("%s/%s: malformed JSON: %v", r.ID, name, err)
				}
			default:
				t.Errorf("%s/%s: unknown artifact extension", r.ID, name)
			}
			if len(data) < 100 {
				t.Errorf("%s/%s: suspiciously small artifact (%d bytes)", r.ID, name, len(data))
			}
		}
	}
}

// The §3.2 ip_asn_dns preparatory table is populated by the pipeline.
func TestIPASNDNSPopulated(t *testing.T) {
	e := env(t)
	rows := e.G.Rel.MustQuery(`SELECT COUNT(*), COUNT(DISTINCT ip) FROM ip_asn_dns`)
	total, _ := rows.Rows[0][0].AsInt()
	distinct, _ := rows.Rows[0][1].AsInt()
	if total == 0 {
		t.Fatal("ip_asn_dns empty")
	}
	if total != distinct {
		t.Errorf("duplicate IPs in ip_asn_dns: %d rows, %d distinct", total, distinct)
	}
	// At least three geolocation techniques present (hoiho, ixp, and the
	// unlocated rest).
	src := e.G.Rel.MustQuery(`SELECT DISTINCT geo_source FROM ip_asn_dns`)
	if src.Len() < 3 {
		t.Errorf("geo_source variety = %d, want >= 3", src.Len())
	}
}

// The distance-cost distribution over many traceroutes: all >= ~1, most
// below 5 — the Figure 7 metric generalized to the mesh.
func TestDistanceCostDistribution(t *testing.T) {
	e := env(t)
	n, below1, over5, scored := 0, 0, 0, 0
	for _, m := range e.P.Measurements {
		if n >= 150 {
			break
		}
		n++
		ta := e.P.AnalyzeTrace(m)
		if len(ta.CitySeq) < 2 {
			continue
		}
		_, _, cost, ok := e.P.DistanceCost(ta.CitySeq)
		if !ok {
			continue
		}
		scored++
		if cost < 0.99 {
			below1++
		}
		if cost > 5 {
			over5++
		}
	}
	if scored < 20 {
		t.Fatalf("only %d traces scored", scored)
	}
	if below1 > 0 {
		t.Errorf("%d traces with distance cost < 1 (shorter than the shortest practical path)", below1)
	}
	if float64(over5)/float64(scored) > 0.2 {
		t.Errorf("%d/%d traces with cost > 5: routing model implausible", over5, scored)
	}
}

// TestFiguresDeterministic: rendering a figure twice on one Env writes the
// same bytes, so a regenerated artifact can be compared with a tracked one.
func TestFiguresDeterministic(t *testing.T) {
	e := env(t)
	figures := []func() Result{
		e.Figure3, e.Figure4, e.Figure5, e.Figure6, e.Figure7, e.Figure8, e.Figure9, e.Figure10,
	}
	for _, fig := range figures {
		first, second := fig(), fig()
		if len(first.Artifacts) == 0 {
			t.Errorf("%s: no artifacts", first.ID)
		}
		for name, data := range first.Artifacts {
			if !bytes.Equal(data, second.Artifacts[name]) {
				t.Errorf("%s/%s: two renderings differ", first.ID, name)
			}
		}
	}
}
