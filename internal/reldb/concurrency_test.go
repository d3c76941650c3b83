package reldb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadersAndWriters backs the package's "safe for concurrent
// use" claim with the race detector: parallel Query and prepared-Stmt
// readers run against goroutines doing BulkInsert and SQL Exec writes.
func TestConcurrentReadersAndWriters(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE nodes (metro TEXT, country TEXT, n INTEGER)`)
	db.MustExec(`CREATE INDEX ON nodes (metro)`)
	seedRows := make([][]Value, 0, 64)
	for i := 0; i < 64; i++ {
		seedRows = append(seedRows, []Value{
			Text(fmt.Sprintf("metro%d", i%8)), Text("US"), Int(int64(i)),
		})
	}
	if err := db.BulkInsert("nodes", seedRows); err != nil {
		t.Fatal(err)
	}

	stmt, err := db.Prepare(`SELECT metro, COUNT(*), SUM(n) FROM nodes GROUP BY metro ORDER BY 2 DESC`)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers    = 8
		writers    = 4
		iterations = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				var rows *Rows
				var err error
				if r%2 == 0 {
					rows, err = stmt.Query()
				} else {
					rows, err = db.Query(`SELECT COUNT(*) FROM nodes WHERE country = 'US'`)
				}
				if err != nil {
					errs <- err
					return
				}
				if rows.Len() == 0 {
					errs <- fmt.Errorf("reader %d: empty result", r)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if w%2 == 0 {
					err := db.BulkInsert("nodes", [][]Value{
						{Text(fmt.Sprintf("metro%d", i%8)), Text("US"), Int(int64(i))},
					})
					if err != nil {
						errs <- err
						return
					}
				} else {
					sql := fmt.Sprintf(`INSERT INTO nodes VALUES ('w%d', 'DE', %d)`, w, i)
					if _, err := db.Exec(sql); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rows := db.MustQuery(`SELECT COUNT(*) FROM nodes`)
	n, _ := rows.Rows[0][0].AsInt()
	want := int64(64 + writers*iterations)
	if n != want {
		t.Fatalf("row count after concurrent writes = %d, want %d", n, want)
	}
}

func TestPrepareRejectsNonSelect(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	for _, sql := range []string{
		`INSERT INTO t VALUES (1)`,
		`UPDATE t SET a = 2`,
		`DELETE FROM t`,
		`CREATE TABLE u (b TEXT)`,
		`DROP TABLE t`,
	} {
		if _, err := db.Prepare(sql); !errors.Is(err, ErrNotSelect) {
			t.Errorf("Prepare(%q) error = %v, want ErrNotSelect", sql, err)
		}
	}
	if _, err := db.Prepare(`SELEKT * FROM t`); err == nil || errors.Is(err, ErrNotSelect) {
		t.Errorf("Prepare(malformed) error = %v, want parse error", err)
	}
}

func TestPreparedStmtSeesNewRows(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	stmt, err := db.Prepare(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(1); want <= 3; want++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, want))
		rows, err := stmt.Query()
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := rows.Rows[0][0].AsInt(); n != want {
			t.Fatalf("after %d inserts COUNT(*) = %d", want, n)
		}
	}
}

// TestQueryContextStops: once its context is done, a statement stops at
// the first check of whichever loop reaches 1,024 rows. A join counts the
// pairs it probes, so two left rows against 2,000 right rows stop too.
func TestQueryContextStops(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE s (k INTEGER)`)
	db.MustExec(`INSERT INTO s VALUES (0), (1)`)
	db.MustExec(`CREATE TABLE t (x INTEGER, g INTEGER)`)
	rows := make([][]Value, 2000)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Int(0)}
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sql := range []string{
		`SELECT COUNT(*) FROM t WHERE x < 0`,         // pushed scan filter
		`SELECT COUNT(*) FROM s JOIN t ON s.k < t.x`, // nested loop
		`SELECT COUNT(*) FROM s JOIN t ON t.g = s.k`, // hash join
		`SELECT g, COUNT(*) FROM t GROUP BY g`,       // grouping
		`SELECT x FROM t`,                            // emit
		`EXPLAIN ANALYZE SELECT x FROM t`,
	} {
		stmt, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.QueryContext(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: QueryContext err = %v, want context.Canceled", sql, err)
		}
		if _, err := stmt.Query(); err != nil {
			t.Errorf("%s: Query err = %v", sql, err)
		}
		if stmt.IsExplain() {
			if _, err := stmt.ExplainContext(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: ExplainContext err = %v, want context.Canceled", sql, err)
			}
		}
	}
}

func TestValueInterface(t *testing.T) {
	cases := []struct {
		v    Value
		want interface{}
	}{
		{Null, nil},
		{Int(7), int64(7)},
		{Float(2.5), 2.5},
		{Text("12"), "12"},
		{Bool(true), true},
	}
	for _, c := range cases {
		if got := c.v.Interface(); got != c.want {
			t.Errorf("Interface(%s) = %v (%T), want %v (%T)", c.v, got, got, c.want, c.want)
		}
	}
}

// BenchmarkPreparedVsQuery shows the parse-once win: repeated execution
// through a prepared Stmt vs DB.Query re-parsing each time. The point
// lookup is parse-dominated (prepared wins big); the grouped join is
// execution-dominated (the two converge) — together they bound where the
// server's plan cache pays off.
func BenchmarkPreparedVsQuery(b *testing.B) {
	db := New()
	db.MustExec(`CREATE TABLE loc (asn INTEGER, country TEXT)`)
	db.MustExec(`CREATE TABLE name (asn INTEGER, asn_name TEXT, source TEXT)`)
	var locRows, nameRows [][]Value
	for asn := 0; asn < 200; asn++ {
		nameRows = append(nameRows, []Value{Int(int64(asn)), Text(fmt.Sprintf("AS%d", asn)), Text("asrank")})
		for c := 0; c < asn%7+1; c++ {
			locRows = append(locRows, []Value{Int(int64(asn)), Text(fmt.Sprintf("C%d", c))})
		}
	}
	if err := db.BulkInsert("loc", locRows); err != nil {
		b.Fatal(err)
	}
	if err := db.BulkInsert("name", nameRows); err != nil {
		b.Fatal(err)
	}

	workloads := []struct {
		name string
		sql  string
	}{
		{"PointLookup", `SELECT asn, asn_name FROM name WHERE asn = 7 AND source = 'asrank' ORDER BY asn LIMIT 1`},
		{"GroupedJoin", `SELECT l.asn, MIN(n.asn_name), COUNT(DISTINCT l.country) AS countries
			FROM loc l JOIN name n ON n.asn = l.asn
			GROUP BY l.asn ORDER BY countries DESC, l.asn ASC LIMIT 11`},
	}
	for _, wl := range workloads {
		b.Run(wl.name+"/Query", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(wl.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wl.name+"/Prepared", func(b *testing.B) {
			stmt, err := db.Prepare(wl.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Query(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
