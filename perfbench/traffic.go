package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"igdb/internal/core"
	"igdb/internal/reldb"
	"igdb/internal/render"
)

// The statement sets are the benchmark's own data, frozen here so that the
// traffic a workload replays changes only when this directory changes.
// corpus.json holds the harvested SELECT and EXPLAIN statements that
// answer 200 on the small world; adhoc.json holds the ad-hoc templates and
// the discovery queries that find their literal domains.
//
//go:embed data/corpus.json data/adhoc.json
var dataFS embed.FS

type corpusStmt struct {
	Name string `json:"name,omitempty"`
	SQL  string `json:"sql"`
}

type adhocTemplate struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

type adhocData struct {
	Discovery map[string]string `json:"discovery"`
	Templates []adhocTemplate   `json:"templates"`
	// Reference holds the queries the /footprint output check answers
	// from the benchmark's own build; {asn} is the AS number.
	Reference map[string]string `json:"reference"`
}

func loadCorpus() ([]corpusStmt, error) {
	var c struct {
		Statements []corpusStmt `json:"statements"`
	}
	data, err := dataFS.ReadFile("data/corpus.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("data/corpus.json: %w", err)
	}
	return c.Statements, nil
}

func loadAdhoc() (*adhocData, error) {
	var a adhocData
	data, err := dataFS.ReadFile("data/adhoc.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("data/adhoc.json: %w", err)
	}
	return &a, nil
}

// request is one HTTP call the generator can schedule.
type request struct {
	class  string // sql, export, path or footprint
	tmpl   string // ad-hoc template name; "" otherwise
	method string
	target string // path and query
	body   string // statement, for /sql
}

func (r *request) key() string { return r.method + " " + r.target + "\n" + r.body }

func sqlRequest(sql, tmpl string) *request {
	return &request{class: "sql", tmpl: tmpl, method: http.MethodPost, target: "/sql", body: sql}
}

func exportRequest(layer string) *request {
	return &request{class: "export", method: http.MethodGet, target: "/export/" + layer}
}

func pathRequest(p [2]string) *request {
	return &request{class: "path", method: http.MethodGet,
		target: "/path?src=" + url.QueryEscape(p[0]) + "&dst=" + url.QueryEscape(p[1])}
}

func footprintRequest(asn int64) *request {
	return &request{class: "footprint", method: http.MethodGet, target: "/footprint/" + strconv.FormatInt(asn, 10)}
}

// domains are the literal values ad-hoc statements draw from.
type domains struct {
	asns      []int64
	countries []string
	metros    [][2]string // metro, country with physical nodes
	froms     [][2]string // std_paths origins
	pairs     [][2]string // std_paths endpoints as Metro-CC labels
}

// sqlQuote renders a text literal.
func sqlQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// instantiate fills template t's placeholders from rng. Combining two or
// three literals per statement keeps repeats rare even though each domain
// holds only hundreds of values.
func (d *domains) instantiate(t adhocTemplate, rng *rand.Rand) string {
	cc := rng.Intn(len(d.countries))
	cc2 := (cc + 1 + rng.Intn(len(d.countries)-1)) % len(d.countries)
	metro := d.metros[rng.Intn(len(d.metros))]
	from := d.froms[rng.Intn(len(d.froms))]
	r := strings.NewReplacer(
		"{asn}", strconv.FormatInt(d.asns[rng.Intn(len(d.asns))], 10),
		"{cc}", sqlQuote(d.countries[cc]),
		"{cc2}", sqlQuote(d.countries[cc2]),
		"{metro}", sqlQuote(metro[0]),
		"{mcc}", sqlQuote(metro[1]),
		"{from}", sqlQuote(from[0]),
		"{fcc}", sqlQuote(from[1]),
		"{k}", strconv.Itoa(1+rng.Intn(40)),
		"{km}", strconv.Itoa(100+rng.Intn(4900)),
	)
	return r.Replace(t.SQL)
}

// ---- output checks ----------------------------------------------------

// sqlBody is the part of a POST /sql response the checks compare.
type sqlBody struct {
	Columns   []string          `json:"columns"`
	Rows      []json.RawMessage `json:"rows"`
	RowCount  int               `json:"row_count"`
	Truncated bool              `json:"truncated"`
}

// countOnly reports statements whose rows carry timings: only their row
// counts can be compared.
func countOnly(sql string) bool {
	u := strings.ToUpper(strings.TrimSpace(sql))
	return strings.HasPrefix(u, "EXPLAIN") ||
		strings.Contains(u, "SOURCE_STATUS") || strings.Contains(u, "BUILD_TRACE")
}

// referenceSQL answers a statement from the benchmark's own copy of the
// database, encoded the way the server encodes rows.
func referenceSQL(db *reldb.DB, sql string) (*sqlBody, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	defer stmt.Close()
	var rows *reldb.Rows
	if stmt.IsExplain() {
		plan, err := stmt.Explain()
		if err != nil {
			return nil, err
		}
		rows = plan.Rows()
	} else if rows, err = stmt.Query(); err != nil {
		return nil, err
	}
	ref := &sqlBody{Columns: rows.Columns, RowCount: rows.Len()}
	for _, row := range rows.Rows {
		vals := make([]interface{}, len(row))
		for i, v := range row {
			vals[i] = v.Interface()
		}
		enc, err := json.Marshal(vals)
		if err != nil {
			return nil, err
		}
		ref.Rows = append(ref.Rows, enc)
	}
	return ref, nil
}

// compareSQL checks a served /sql body against the reference: sorted rows
// when the statement has no ORDER BY, rows in order when it does, and only
// row counts for statements whose rows hold timings.
func compareSQL(sql string, body []byte, ref *sqlBody) error {
	var got sqlBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	if got.RowCount != ref.RowCount {
		return fmt.Errorf("row_count %d, reference %d", got.RowCount, ref.RowCount)
	}
	if countOnly(sql) {
		return nil
	}
	if strings.Join(got.Columns, ",") != strings.Join(ref.Columns, ",") {
		return fmt.Errorf("columns %v, reference %v", got.Columns, ref.Columns)
	}
	a, b := rowStrings(got.Rows), rowStrings(ref.Rows)
	if got.Truncated {
		b = b[:min(len(b), len(a))]
	}
	if !strings.Contains(strings.ToUpper(sql), "ORDER BY") {
		sort.Strings(a)
		sort.Strings(b)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, reference %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("row %d is %s, reference %s", i, a[i], b[i])
		}
	}
	return nil
}

func rowStrings(rows []json.RawMessage) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var c bytes.Buffer
		if err := json.Compact(&c, r); err != nil {
			out[i] = string(r)
			continue
		}
		out[i] = c.String()
	}
	return out
}

// referenceExport renders a layer from the benchmark's own database.
func referenceExport(db *reldb.DB, layer string) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := render.WriteLayerGeoJSON(&buf, db, layer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sortedFeatures reduces a GeoJSON FeatureCollection to its sorted,
// compacted features, so two exports compare equal whatever the row order.
func sortedFeatures(body []byte) ([]string, error) {
	var fc struct {
		Features []json.RawMessage `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil {
		return nil, err
	}
	out := rowStrings(fc.Features)
	sort.Strings(out)
	return out, nil
}

func compareExport(body, ref []byte) error {
	a, err := sortedFeatures(body)
	if err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	b, err := sortedFeatures(ref)
	if err != nil {
		return fmt.Errorf("decoding reference: %v", err)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d features, reference %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("feature %d differs from the reference", i)
		}
	}
	return nil
}

// checkPath compares a /path answer with the shortest practical path in
// the benchmark's own build: the metros it passes through and its length.
func checkPath(g *core.IGDB, target string, body []byte) error {
	u, err := url.Parse(target)
	if err != nil {
		return err
	}
	src, dst := u.Query().Get("src"), u.Query().Get("dst")
	var fc struct {
		Features []struct {
			Properties struct {
				Src        string   `json:"src"`
				Dst        string   `json:"dst"`
				ShortestKm float64  `json:"shortest_km"`
				Via        []string `json:"via"`
			} `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	if len(fc.Features) != 1 {
		return fmt.Errorf("%d features, want 1", len(fc.Features))
	}
	got := fc.Features[0].Properties
	if got.Src != src || got.Dst != dst {
		return fmt.Errorf("answers %s to %s", got.Src, got.Dst)
	}
	a, b := g.MetroIndex(src), g.MetroIndex(dst)
	if a < 0 || b < 0 {
		return errors.New("reference: unknown metro")
	}
	cities, km, ok := g.Paths.ShortestPracticalPath(a, b)
	if !ok {
		return errors.New("reference: no physical path")
	}
	via := make([]string, len(cities))
	for i, c := range cities {
		via[i] = g.Cities[c].Metro()
	}
	if !slices.Equal(got.Via, via) {
		return fmt.Errorf("via %v, reference %v", got.Via, via)
	}
	if got.ShortestKm != km {
		return fmt.Errorf("shortest_km %v, reference %v", got.ShortestKm, km)
	}
	return nil
}

// footprintMetro is one metro of a /footprint answer.
type footprintMetro struct {
	Metro   string  `json:"metro"`
	State   string  `json:"state"`
	Country string  `json:"country"`
	Lon     float64 `json:"lon"`
	Lat     float64 `json:"lat"`
	Remote  bool    `json:"remote"`
}

// checkFootprint compares a /footprint answer with the benchmark's own
// build queried through reldb: the AS's names, organizations and country
// count, and its metros with their coordinates (as a set).
func checkFootprint(g *core.IGDB, queries map[string]string, target string, body []byte) error {
	asn := strings.TrimPrefix(target, "/footprint/")
	var got struct {
		Names     []string         `json:"names"`
		Orgs      []string         `json:"organizations"`
		Countries int              `json:"countries"`
		Metros    []footprintMetro `json:"metros"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	query := func(name string) (*reldb.Rows, error) {
		rows, err := g.Rel.Query(strings.ReplaceAll(queries[name], "{asn}", asn))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %v", name, err)
		}
		return rows, nil
	}
	texts := func(name string) ([]string, error) {
		rows, err := query(name)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, row := range rows.Rows {
			if t, ok := row[0].AsText(); ok && t != "" {
				out = append(out, t)
			}
		}
		return out, nil
	}
	names, err := texts("footprint_names")
	if err != nil {
		return err
	}
	if !slices.Equal(got.Names, names) {
		return fmt.Errorf("names %q, reference %q", got.Names, names)
	}
	orgs, err := texts("footprint_organizations")
	if err != nil {
		return err
	}
	if !slices.Equal(got.Orgs, orgs) {
		return fmt.Errorf("organizations %q, reference %q", got.Orgs, orgs)
	}
	rows, err := query("footprint_metros")
	if err != nil {
		return err
	}
	var metros []footprintMetro
	countries := map[string]bool{}
	for _, row := range rows.Rows {
		var m footprintMetro
		m.Metro, _ = row[0].AsText()
		m.State, _ = row[1].AsText()
		m.Country, _ = row[2].AsText()
		m.Remote, _ = row[3].AsBool()
		if i := g.CityIndex(m.Metro, m.State, m.Country); i >= 0 {
			loc := g.CityLoc(i)
			m.Lon, m.Lat = loc.Lon, loc.Lat
		}
		countries[m.Country] = true
		metros = append(metros, m)
	}
	if got.Countries != len(countries) {
		return fmt.Errorf("%d countries, reference %d", got.Countries, len(countries))
	}
	byKey := func(a, b footprintMetro) int { return strings.Compare(fmt.Sprintf("%v", a), fmt.Sprintf("%v", b)) }
	slices.SortFunc(got.Metros, byKey)
	slices.SortFunc(metros, byKey)
	if !slices.Equal(got.Metros, metros) {
		return fmt.Errorf("metros %v, reference %v", got.Metros, metros)
	}
	return nil
}
