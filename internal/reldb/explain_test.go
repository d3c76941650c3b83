package reldb_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"igdb/internal/core"
	"igdb/internal/reldb"
)

func explainTestDB(t testing.TB) *reldb.DB {
	t.Helper()
	db := reldb.New()
	db.MustExec("CREATE TABLE cities (id INTEGER, name TEXT, country TEXT, pop INTEGER)")
	db.MustExec("CREATE TABLE links (src INTEGER, dst INTEGER, km REAL)")
	db.MustExec("CREATE INDEX ON cities (id)")
	db.MustExec("INSERT INTO cities VALUES (1,'ashburn','US',120), (2,'fremont','US',230), (3,'lyon','FR',500), (4,'paris','FR',2100)")
	db.MustExec("INSERT INTO links VALUES (1,3,6200.5), (1,4,6180.0), (2,3,9100.25), (3,4,390.0)")
	return db
}

// collect flattens the tree pre-order for shape assertions.
func planOps(n *reldb.PlanNode) []string {
	var ops []string
	n.Walk(func(p *reldb.PlanNode, _ int) { ops = append(ops, p.Op) })
	return ops
}

func TestExplainPlanShape(t *testing.T) {
	db := explainTestDB(t)
	tests := []struct {
		sql     string
		want    []string // pre-order op sequence
		indexes []string // the index brackets, in pre-order
	}{
		{"SELECT name FROM cities",
			[]string{"project", "scan"}, nil},
		{"SELECT name FROM cities WHERE pop > 200",
			[]string{"project", "filter", "scan"}, nil},
		{"SELECT DISTINCT country FROM cities ORDER BY country LIMIT 2",
			[]string{"limit", "sort", "distinct", "project", "scan"}, nil},
		{"SELECT country, COUNT(*) FROM cities GROUP BY country",
			[]string{"group", "scan"}, nil},
		{"SELECT c.name FROM cities c JOIN links l ON l.src = c.id",
			[]string{"project", "hash_join", "scan", "scan"}, []string{"hash(l.src)"}},
		{"SELECT c.name FROM cities c JOIN links l ON l.src < c.id",
			[]string{"project", "nested_loop_join", "scan", "scan"}, nil},
		// A WHERE conjunct on the FROM table filters its scan; the mixed
		// one stays above the join.
		{"SELECT c.name FROM cities c JOIN links l ON l.src = c.id WHERE c.pop > 200 AND l.dst > c.id",
			[]string{"project", "filter", "hash_join", "filter", "scan", "scan"}, []string{"hash(l.src)"}},
		// An ON conjunct on the joined table filters its rows before the
		// hash build.
		{"SELECT c.name FROM cities c JOIN links l ON l.src = c.id AND l.km < 1000",
			[]string{"project", "hash_join", "scan", "filter", "scan"}, []string{"hash(l.src)"}},
		// A WHERE conjunct on a LEFT-joined table stays above the join: it
		// must see the NULL-padded rows.
		{"SELECT c.name FROM cities c LEFT JOIN links l ON l.src = c.id WHERE l.km IS NULL",
			[]string{"project", "filter", "hash_join", "scan", "scan"}, []string{"hash(l.src)"}},
		{"SELECT 1+1",
			[]string{"project", "values"}, nil},
		// Equality with a literal of the column's kind on an indexed
		// column reads the index bucket; the pushed filter still runs.
		{"SELECT name FROM cities WHERE id = 2 AND pop > 100",
			[]string{"project", "filter", "scan"}, []string{"index id = 2"}},
		// So does a WHERE conjunct pushed onto an INNER-joined table, whose
		// rows the join then hashes.
		{"SELECT l.km FROM links l JOIN cities c ON c.id = l.dst WHERE c.id = 3",
			[]string{"project", "hash_join", "scan", "filter", "scan"}, []string{"hash(c.id)", "index id = 3"}},
		// And a LEFT JOIN's ON conjunct on its own table.
		{"SELECT l.km, c.name FROM links l LEFT JOIN cities c ON c.id = l.dst AND c.id = 4",
			[]string{"project", "hash_join", "scan", "filter", "scan"}, []string{"hash(c.id)", "index id = 4"}},
		// A whole joined table whose build column is indexed is probed
		// through its stored index.
		{"SELECT l.km, c.name FROM links l JOIN cities c ON c.id = l.src",
			[]string{"project", "hash_join", "scan", "scan"}, []string{"index c.id"}},
		// A literal of another kind is not the index's key: a full scan.
		{"SELECT name FROM cities WHERE id = '2'",
			[]string{"project", "filter", "scan"}, nil},
		// TEXT = INTEGER keys would not agree with =: a nested loop.
		{"SELECT c.name FROM cities c JOIN links l ON c.name = l.src",
			[]string{"project", "nested_loop_join", "scan", "scan"}, nil},
	}
	for _, tc := range tests {
		plan, err := db.Explain(tc.sql, false)
		if err != nil {
			t.Fatalf("Explain(%q): %v", tc.sql, err)
		}
		got := planOps(plan)
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("Explain(%q) ops = %v, want %v", tc.sql, got, tc.want)
		}
		var idx []string
		plan.Walk(func(p *reldb.PlanNode, _ int) {
			if p.Index != "" {
				idx = append(idx, p.Index)
			}
		})
		if strings.Join(idx, "|") != strings.Join(tc.indexes, "|") {
			t.Errorf("Explain(%q) indexes = %q, want %q", tc.sql, idx, tc.indexes)
		}
		// Plain EXPLAIN must not execute: no actuals anywhere.
		plan.Walk(func(p *reldb.PlanNode, _ int) {
			if p.Actual != nil {
				t.Errorf("Explain(%q): node %s has actuals without ANALYZE", tc.sql, p.Op)
			}
		})
	}
}

func TestExplainAnalyzeActuals(t *testing.T) {
	db := explainTestDB(t)
	sql := "SELECT c.country, COUNT(*) AS n FROM cities c JOIN links l ON l.src = c.id WHERE c.pop > 200 GROUP BY c.country ORDER BY n DESC LIMIT 1"
	plan, err := db.Explain(sql, true)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]*reldb.PlanNode{}
	plan.Walk(func(p *reldb.PlanNode, _ int) {
		byOp[p.Op] = p
		if p.Actual == nil {
			t.Fatalf("node %s missing actuals", p.Op)
		}
		if p.Actual.Loops < 1 {
			t.Errorf("node %s: loops = %d, want >= 1", p.Op, p.Actual.Loops)
		}
	})
	// The WHERE conjunct runs at the cities scan: 3 of 4 cities have
	// pop > 200, and the links of the 2 that are link sources survive.
	filter := byOp["filter"]
	if got := filter.Actual; got.RowsIn != 4 || got.RowsOut != 3 {
		t.Errorf("filter in/out = %d/%d, want 4/3", got.RowsIn, got.RowsOut)
	}
	if len(filter.Children) != 1 || filter.Children[0].Op != "scan" || filter.Children[0].Table != "cities" {
		t.Errorf("filter does not sit directly on the cities scan: %v", filter.Text())
	}
	if got := byOp["hash_join"].Actual; got.RowsIn != 3 || got.RowsOut != 2 {
		t.Errorf("hash_join in/out = %d/%d, want 3/2", got.RowsIn, got.RowsOut)
	}
	// Two countries grouped, limit keeps one.
	if got := byOp["group"].Actual.RowsOut; got != 2 {
		t.Errorf("group rows_out = %d, want 2", got)
	}
	if got := byOp["limit"].Actual; got.RowsIn != 2 || got.RowsOut != 1 {
		t.Errorf("limit in/out = %d/%d, want 2/1", got.RowsIn, got.RowsOut)
	}

	// A lookup reads only its bucket: city 1, which the filter keeps. The
	// join probes links' stored index on src once, fetching city 1's two
	// links, and the links scan counts those rows, not the table's four.
	db.MustExec("CREATE INDEX ON links (src)")
	plan, err = db.Explain("SELECT c.name, l.km FROM cities c JOIN links l ON l.src = c.id WHERE c.id = 1", true)
	if err != nil {
		t.Fatal(err)
	}
	var scans []*reldb.PlanNode
	byOp = map[string]*reldb.PlanNode{}
	plan.Walk(func(p *reldb.PlanNode, _ int) {
		byOp[p.Op] = p
		if p.Op == "scan" {
			scans = append(scans, p)
		}
	})
	if len(scans) != 2 {
		t.Fatalf("want two scans:\n%s", strings.Join(plan.Text(), "\n"))
	}
	for _, c := range []struct {
		name           string
		node           *reldb.PlanNode
		index          string
		in, out, loops int
	}{
		{"cities scan", scans[0], "index id = 1", 1, 1, 1},
		{"filter", byOp["filter"], "", 1, 1, 1},
		{"hash_join", byOp["hash_join"], "index l.src", 1, 2, 1},
		{"links scan", scans[1], "", 2, 2, 1},
	} {
		got := c.node.Actual
		if c.node.Index != c.index || got.RowsIn != c.in || got.RowsOut != c.out || got.Loops != c.loops {
			t.Errorf("%s: [%s] in/out/loops = %d/%d/%d, want [%s] %d/%d/%d", c.name,
				c.node.Index, got.RowsIn, got.RowsOut, got.Loops, c.index, c.in, c.out, c.loops)
		}
	}
}

func TestExplainAnalyzeMatchesExecution(t *testing.T) {
	db := explainTestDB(t)
	sql := "SELECT country, SUM(pop) FROM cities GROUP BY country ORDER BY 2 DESC"
	direct, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Explain(sql, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Actual.RowsOut; got != direct.Len() {
		t.Errorf("root rows_out = %d, direct query returned %d", got, direct.Len())
	}
}

func TestExplainThroughQuery(t *testing.T) {
	db := explainTestDB(t)
	render := func(sql string) string {
		t.Helper()
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Columns) != 1 || rows.Columns[0] != "plan" {
			t.Fatalf("columns = %v, want [plan]", rows.Columns)
		}
		text := ""
		for _, r := range rows.Rows {
			text += r[0].String() + "\n"
		}
		return text
	}
	// cities has an index on id only: a filter on country reads every row
	// and names no index.
	text := render("EXPLAIN ANALYZE SELECT name FROM cities WHERE country = 'US'")
	for _, want := range []string{"project", "filter (country = 'US')", "scan cities rows=4 (actual:", "actual:"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered plan missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "[") {
		t.Errorf("a full scan names an index:\n%s", text)
	}
	text = render("EXPLAIN ANALYZE SELECT name FROM cities WHERE id = 2")
	for _, want := range []string{"filter (id = 2)", "scan cities rows=1 [index id = 2] (actual: in=1 out=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered plan missing %q:\n%s", want, text)
		}
	}
}

func TestExplainJSONRendering(t *testing.T) {
	db := explainTestDB(t)
	plan, err := db.Explain("SELECT c.name FROM cities c JOIN links l ON l.src = c.id LIMIT 2", true)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var back reldb.PlanNode
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if strings.Join(planOps(&back), " ") != strings.Join(planOps(plan), " ") {
		t.Errorf("JSON round-trip changed op sequence")
	}
	if !strings.Contains(string(blob), `"rows_out"`) {
		t.Errorf("JSON missing actuals: %s", blob)
	}
}

func TestExplainErrors(t *testing.T) {
	db := explainTestDB(t)
	if _, err := db.Query("EXPLAIN EXPLAIN SELECT 1"); err == nil {
		t.Error("nested EXPLAIN accepted")
	}
	if _, err := db.Query("EXPLAIN ANALYZE DELETE FROM cities"); err == nil {
		t.Error("EXPLAIN ANALYZE of DML accepted")
	}
	if _, err := db.Query("EXPLAIN SELECT * FROM nope"); err == nil {
		t.Error("EXPLAIN of missing table accepted")
	}
	// Plain EXPLAIN of DML is read-only planning and must work — and must
	// not execute the statement.
	rows, err := db.Query("EXPLAIN DELETE FROM cities WHERE pop > 0")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Error("EXPLAIN DELETE returned no plan")
	}
	if n := db.MustQuery("SELECT COUNT(*) FROM cities").Rows[0][0]; n.String() != "4" {
		t.Errorf("EXPLAIN DELETE executed the delete: %s cities left", n)
	}
	// Prepare gates EXPLAIN ANALYZE of writes behind ErrNotSelect.
	if _, err := db.Prepare("EXPLAIN ANALYZE UPDATE cities SET pop = 0"); !errors.Is(err, reldb.ErrNotSelect) {
		t.Errorf("Prepare(EXPLAIN ANALYZE UPDATE) err = %v, want ErrNotSelect", err)
	}
	if _, err := db.Prepare("EXPLAIN INSERT INTO cities VALUES (9,'x','Y',1)"); err != nil {
		t.Errorf("Prepare(plain EXPLAIN INSERT) err = %v, want nil", err)
	}
}

func TestExplainPreparedStmt(t *testing.T) {
	db := explainTestDB(t)
	stmt, err := db.Prepare("EXPLAIN ANALYZE SELECT name FROM cities WHERE pop > 100")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if !stmt.IsExplain() || !stmt.IsAnalyze() {
		t.Fatal("IsExplain/IsAnalyze false for EXPLAIN ANALYZE stmt")
	}
	plan, err := stmt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Actual == nil {
		t.Fatal("prepared EXPLAIN ANALYZE returned no actuals")
	}
	// Repeated execution stays correct (fresh plan per call).
	plan2, err := stmt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Actual.RowsOut != plan.Actual.RowsOut {
		t.Errorf("repeat rows_out = %d, want %d", plan2.Actual.RowsOut, plan.Actual.RowsOut)
	}
	plain, err := db.Prepare("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.IsExplain() {
		t.Error("plain SELECT reports IsExplain")
	}
	if _, err := plain.Explain(); !errors.Is(err, reldb.ErrNotSelect) {
		t.Errorf("Explain on plain SELECT err = %v, want ErrNotSelect", err)
	}
}

// readCorpusSeeds parses the `go test fuzz v1` seed files the harvester
// maintains, returning the raw SQL statements.
func readCorpusSeeds(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			sql, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				continue
			}
			out = append(out, sql)
		}
	}
	if len(out) == 0 {
		t.Fatal("no corpus seeds found")
	}
	return out
}

// TestExplainHarvestedCorpus proves EXPLAIN covers the SQL the codebase
// actually issues: every harvested corpus statement must EXPLAIN, and every
// SELECT must EXPLAIN ANALYZE with actuals on each operator.
func TestExplainHarvestedCorpus(t *testing.T) {
	db := reldb.New()
	for _, ddl := range core.SchemaDDL {
		db.MustExec(ddl)
	}
	selects, analyzed := 0, 0
	for _, sql := range readCorpusSeeds(t) {
		st, err := reldb.ParseStatement(sql)
		if err != nil {
			continue // fuzzer-found seeds need not be valid SQL
		}
		trimmed := strings.TrimSpace(sql)
		if strings.HasPrefix(strings.ToUpper(trimmed), "EXPLAIN") {
			continue // already an EXPLAIN; re-wrapping is rejected by design
		}
		// A CREATE TABLE seed is one of the schema's own statements, which
		// runs in a database that does not hold its table yet; EXPLAIN
		// fails where execution would.
		target := db
		if _, ok := st.(*reldb.CreateTableStmt); ok {
			target = reldb.New()
		}
		if _, err := target.Query("EXPLAIN " + trimmed); err != nil {
			t.Errorf("EXPLAIN %q: %v", sql, err)
			continue
		}
		if _, ok := st.(*reldb.SelectStmt); !ok {
			continue
		}
		selects++
		plan, err := db.Explain(trimmed, true)
		if err != nil {
			t.Errorf("EXPLAIN ANALYZE %q: %v", sql, err)
			continue
		}
		ok := true
		plan.Walk(func(p *reldb.PlanNode, _ int) {
			if p.Actual == nil {
				ok = false
			}
		})
		if !ok {
			t.Errorf("EXPLAIN ANALYZE %q: operators missing actuals", sql)
			continue
		}
		analyzed++
	}
	if selects < 30 {
		t.Fatalf("corpus yielded only %d SELECTs; harvest looks broken", selects)
	}
	if analyzed != selects {
		t.Fatalf("only %d/%d corpus SELECTs produced full actuals", analyzed, selects)
	}
	t.Logf("EXPLAIN ANALYZE over corpus: %d SELECTs, all with actuals", analyzed)
}
