package reldb

import "testing"

// FuzzParseStatement asserts the SQL lexer and parser never panic,
// whatever bytes arrive on the wire (the server feeds them user input
// directly).
func FuzzParseStatement(f *testing.F) {
	f.Add("SELECT * FROM t")
	f.Add("SELECT a, b FROM t WHERE a = 1 AND b <> 'x' ORDER BY a DESC LIMIT 5")
	f.Add("SELECT COUNT(DISTINCT country) AS c FROM asn_loc GROUP BY asn HAVING c > 1")
	f.Add("SELECT l.asn FROM asn_loc l JOIN asn_name n ON n.asn = l.asn")
	f.Add("CREATE TABLE t (a INTEGER, b TEXT)")
	f.Add("INSERT INTO t VALUES (1, 'two')")
	f.Add("SELECT 'unterminated")
	f.Add("SELECT * FROM t WHERE a IN (1, 2, 3)")
	f.Add("EXPLAIN SELECT a FROM t WHERE b = 'x' ORDER BY a")
	f.Add("EXPLAIN ANALYZE SELECT l.asn, COUNT(*) FROM asn_loc l JOIN asn_name n ON n.asn = l.asn GROUP BY l.asn")
	f.Add("SELECT -1.5e10, 0x, ``, \"q\"")
	f.Add("((((")
	f.Add(";")
	f.Add("")
	f.Fuzz(func(t *testing.T, sql string) {
		_, _ = ParseStatement(sql)
	})
}

// FuzzPrepare drives the full plan path (lex, parse, resolve, compile)
// against a populated database.
func FuzzPrepare(f *testing.F) {
	f.Add("SELECT a FROM t WHERE b = 'x'")
	f.Add("SELECT MAX(a) FROM t")
	f.Add("SELECT * FROM missing")
	f.Add("SELECT t.a, u.a FROM t JOIN u ON t.a = u.a ORDER BY 1")
	f.Fuzz(func(t *testing.T, sql string) {
		db := New()
		for _, stmt := range []string{
			"CREATE TABLE t (a INTEGER, b TEXT)",
			"CREATE TABLE u (a INTEGER)",
			"INSERT INTO t VALUES (1, 'x')",
		} {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		_, _ = db.Prepare(sql)
	})
}
