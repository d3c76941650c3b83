package reldb_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/reldb"
	"igdb/internal/worldgen"
)

// pinnedAnswerSHA holds the sha256 of the rows, in order, that each
// statement returns on the seed-42 small world. Harvested seeds are keyed
// by their file name in corpusDir; the others by the names in
// pinnedExtraSQL. A change to how the executor computes an answer (a new
// plan, a faster operator) must leave every digest unchanged.
var pinnedAnswerSHA = map[string]string{
	"asn_loc_174":                "474e8598d2e59f6065bcfed471820da205b8e9b2b4afb601f816829d4248d251",
	"asn_loc_174_float":          "474e8598d2e59f6065bcfed471820da205b8e9b2b4afb601f816829d4248d251",
	"asn_loc_174_text":           "474e8598d2e59f6065bcfed471820da205b8e9b2b4afb601f816829d4248d251",
	"asn_loc_metros_174":         "1eb2ff9f99a3d7926ab8b53dbed0e496d2c91170e8c9957e4de2ce14a3c391ce",
	"asn_metros":                 "4b111f992e35df218910a19c706a64a63730fb6812f43a3a69d789e1fb9477b3",
	"asn_name_join_de":           "2bda9e866d5cce42c84cc398937a8415df6dc39382017f9cc4eca4a7cf434fc6",
	"asn_name_left_join_de":      "2bda9e866d5cce42c84cc398937a8415df6dc39382017f9cc4eca4a7cf434fc6",
	"country_top":                "15e3e0800d8c2e532829a70e8111099ab2dc65b36ab42f073483ecb5914930c3",
	"figure8":                    "8dca9adec57bba02829327a69be261141ce3a9d023c83137fc048dbf10ffa1e8",
	"footprint_metros_174":       "e07b5599d818a27fc906e9ad6b3fce5d7b605174d31db7fb2415236418d22edf",
	"footprint_metros_absent":    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"footprint_names_174":        "5f9c05d6c3ea5cd82ed09bff9164734865b499cb4f5f6622ee8d1283aca79325",
	"footprint_names_absent":     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"footprint_orgs_174":         "99dae2071328c1d767823271112b3e5fafcde6171471f917ede9774810dac2f5",
	"footprint_orgs_absent":      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"harvested-066c805672af4ac1": "863409e2b76f9726570ea2da1adbe65cac3022d2d892d363abf2ad61c6b09bd2",
	"harvested-2068f40dad66fec9": "52b94d720fff5d3be2c2af8d95b24ffabdbbeab3fe0d2cc5166229e7c54235b3",
	"harvested-2a2dc3093d3c4914": "21dcbe7ea4cd13bba77dfbdd8fdbff38399f02978bcc716dfe8fe8accad0974f",
	"harvested-2adad2f1ee32e813": "5acddf2a34be541a499269c8c5cd28c202954477deba0955ad8c4c3839cd0268",
	"harvested-369bb4146f3e70eb": "c57dda748dcf9a8ff98eb88b52ef933d80cbbb19e744255d2b3c70f648528704",
	"harvested-37a0985d3218d5d5": "827c26546d3dcbab804607fa73e59b1931213ea4ab2fe9d7fb44cc1d7cb991e9",
	"harvested-4936e2f34c8f8289": "40afd8e7795a2a1618ae41f44f583f3eeb8ebac978ade9cab99d57afc27e6884",
	"harvested-4a09d74f16922de2": "5f5aeb76dd088d52bf457edfcfca6eb4f2253574919d35cbd519956b5f2c5e53",
	"harvested-4eab6bf889d3b602": "684dbcf7eb34b5ae4fa37b3e962d1207257eb87a7bdbaad10e34346a0363af95",
	"harvested-4f00af9afb28bf38": "ea4c42cf0295552a864b15444b0e2a111365904be5b8965d0fe498f0aa87a13d",
	"harvested-58dafeb7c431607f": "b6705640925b1572f73af15a669933865bb86de7c1effab2a8ccc8101cecdc8e",
	"harvested-61a21a38aabb336b": "36576c2bd5a67c21f576b7468de01cb3683dd0f0eaf2aa3f0db4b8ac6dfe206d",
	"harvested-6404cce39c9011d2": "4b73ef53b88e9604282298467cd3e5382597b1999571ec681b4fc3e5e5367264",
	"harvested-67ea1ec117c85999": "d1addc77ad4f78d54c441b9a2f5c16b41ff7f25e409d4ab49b29a3295d61a680",
	"harvested-6c8bd5fa2d39bea8": "0f7bc68a28d4a4b9fe778d80efd3a499ae1bf096874f2456350821c7d459028d",
	"harvested-6d224221943fba13": "b7cc7c195e1ebd6e8fae437bb76ba4ed5138efae4c91552b062ab44e5d635158",
	"harvested-74bc8e3f9368f015": "a789ba94ea212d4e6bfecbf5e34d90cc3333700f32c21b94eb1441ddbef2e9a5",
	"harvested-7e7b1ef3ad90a79c": "0fb1d134c6c563e91b8c3f64c9350119dcc21f801d2ebae4d5bf2ce2daa7c341",
	"harvested-801ee6bb4ea09ea2": "0365f73e00c24bc0808f86e2d084442d0026cf288de000c8aff36a6b0210aba1",
	"harvested-8e04e099bc41d089": "084a367e5723c8e1ab40c46786bf88e7b750de1fcb71f427857b18db1d9f46ff",
	"harvested-aa6160be845b0d4d": "b784d017c46dfea1f97262e99150a3182a7975953fc914a2f2be7f181dcc471c",
	"harvested-b38852340b211e77": "4fb1e03ca5d3114b308199e76f74fd5ff6a6616179b3de87ae9f0d8c19efb898",
	"harvested-ba393de4a33d4552": "258691e3c5680cd2cfdf3d7fe186d55fe1e039c33392e2f7056505a34a3036de",
	"harvested-bcd584c6922e775f": "0de68ac4d94cf0afdf44813cd11de97c4163cfa5fc2d3044941f26fb0162909a",
	"harvested-c1862fede8795c90": "9c9a5bde86745b4d5b82b1dbb6dfaa2b4552287f01a2e3d0036ac3f23ba2f88e",
	"harvested-cbc78d1b3e761b5d": "7b19cd403b62bcdd7a788d8e5b6bfe8bacdb204200da3e16e5fff622f6e532e1",
	"harvested-cf90475baba66035": "388708dbe894fbe99c391bf116805264f2b4abf04d68e6b8b7f500bde20d551e",
	"harvested-d973f7d535e85e1f": "af65f5d83024e36ae0e68a3c1f4c13f29215ab9b5710e954f3d3abf99a75ac67",
	"harvested-dd0aeb80d0dc4aa9": "840ca6ff4b79e3931fccc6e9869ccbd1e9d6a5e3ac0c845e10f2437407a3c4e7",
	"harvested-e5ee6aaf000d5faa": "0a25d2ceaa36566645c01f1e9ac2f857bf18750486e4d3d4a4eea997f03cce25",
	"harvested-ebafcc45cef058d8": "6605fad8006e90535b80ca231acc9bd2fb1a7abfba4a81629c8ef48c62d5a789",
	"harvested-ec21df8f55c3ccca": "9af9db8839a4987f82c72277fe124bcb847121f4679aede7a0443c022c13cad5",
	"harvested-ed004155515bbac2": "04d4efa66fcc078e706cf1e51ac4d7eaeb700eda69629016a798d3444f72c11f",
	"harvested-ed65b49803f6ae7b": "8d2c96d7d489f07b6a27292df5ffbc9ab93cdf226422b002a1790c8aaa3ecf09",
	"harvested-ef430debd246be8b": "d1a082502883a5de3122747f0d2222ff40053b1c418c8f7edb41e19d41f6f7db",
	"harvested-f3a15fbfa2703f22": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"harvested-f88a16250136fc0c": "d284c667d1e2b81422e3fb11e9e7530db1d5ab7dbd0425432c1b00e7effa84ff",
	"harvested-ff6eb740ddf88a98": "545b25c7deb73b2f1e0905c0b86c7f43ceef33d8e3c95ae1efe1cd89ce33dce0",
	"metro_nodes":                "bac47e84a7b87682cce346ae2874ee46b1409b9f6337b06b4f25ec1f1d2dc228",
	"metro_paths":                "e4fc250e13afd816849d458108817436439c037c24202a6b8c9a2459e5ff8632",
}

// pinnedExtraSQL are statements pinned beside the harvested seeds: the
// Figure 8 self-join kept in perfbench's corpus, the four ad-hoc templates
// of perfbench/data/adhoc.json at fixed literals, and the point queries
// and equi-joins on indexed columns that the server and paths run. AS
// 4200000000 is absent from the world. The statements without ORDER BY
// pin row order too; asn_loc_174_text and asn_loc_174_float compare asn
// with a literal of another kind and return AS 174's rows, the digest of
// asn_loc_174.
var pinnedExtraSQL = map[string]string{
	"figure8": `SELECT DISTINCT n1.metro, n1.state_province, n2.metro, n2.state_province
		FROM phys_nodes n1
		JOIN phys_nodes n2 ON n1.organization = n2.organization
		WHERE n1.organization LIKE '%ATT-INTERNET%' AND n1.metro < n2.metro`,
	"asn_metros":  `SELECT l.metro, l.country, n.asn_name FROM asn_loc l JOIN asn_name n ON n.asn = l.asn WHERE l.asn = 174 AND l.country <> 'US' ORDER BY l.country, l.metro, n.asn_name`,
	"country_top": `SELECT l.asn, COUNT(DISTINCT l.metro) AS metros FROM asn_loc l WHERE l.country = 'US' OR l.country = 'DE' GROUP BY l.asn ORDER BY metros DESC, l.asn LIMIT 10`,
	"metro_paths": `SELECT to_metro, to_country, distance_km FROM std_paths WHERE from_metro = 'New York' AND from_country = 'US' AND distance_km < 3000 ORDER BY distance_km, to_country, to_metro`,
	"metro_nodes": `SELECT organization, COUNT(*) AS nodes FROM phys_nodes WHERE metro = 'New York' AND country = 'US' GROUP BY organization ORDER BY nodes DESC, organization LIMIT 5`,

	"footprint_names_174":     `SELECT DISTINCT asn_name FROM asn_name WHERE asn = 174 ORDER BY asn_name`,
	"footprint_orgs_174":      `SELECT DISTINCT organization FROM asn_org WHERE asn = 174 ORDER BY organization`,
	"footprint_metros_174":    `SELECT DISTINCT metro, state_province, country, remote FROM asn_loc WHERE asn = 174 ORDER BY country, metro`,
	"footprint_names_absent":  `SELECT DISTINCT asn_name FROM asn_name WHERE asn = 4200000000 ORDER BY asn_name`,
	"footprint_orgs_absent":   `SELECT DISTINCT organization FROM asn_org WHERE asn = 4200000000 ORDER BY organization`,
	"footprint_metros_absent": `SELECT DISTINCT metro, state_province, country, remote FROM asn_loc WHERE asn = 4200000000 ORDER BY country, metro`,
	"asn_loc_metros_174":      `SELECT DISTINCT metro, state_province, country FROM asn_loc WHERE asn = 174`,
	"asn_loc_174":             `SELECT metro, state_province, country FROM asn_loc WHERE asn = 174`,
	"asn_loc_174_text":        `SELECT metro, state_province, country FROM asn_loc WHERE asn = '174'`,
	"asn_loc_174_float":       `SELECT metro, state_province, country FROM asn_loc WHERE asn = 174.0`,
	"asn_name_join_de":        `SELECT l.metro, n.asn_name FROM asn_loc l JOIN asn_name n ON n.asn = l.asn WHERE l.country = 'DE'`,
	"asn_name_left_join_de":   `SELECT l.metro, n.asn_name FROM asn_loc l LEFT JOIN asn_name n ON n.asn = l.asn WHERE l.country = 'DE'`,
}

// harvestedSelects returns the SELECT statements among the harvested seeds,
// keyed by file name, except those over source_status and build_trace,
// whose rows hold load and build timings.
func harvestedSelects(t *testing.T) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "harvested-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		last := lines[len(lines)-1]
		sql, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(last, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		st, err := reldb.ParseStatement(sql)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if _, ok := st.(*reldb.SelectStmt); !ok ||
			strings.Contains(sql, "source_status") || strings.Contains(sql, "build_trace") {
			continue
		}
		out[e.Name()] = sql
	}
	return out
}

// rowsDigest hashes every cell of every row, in order.
func rowsDigest(rows *reldb.Rows) string {
	h := sha256.New()
	for _, row := range rows.Rows {
		for _, v := range row {
			fmt.Fprintf(h, "%v\x1f", v.Interface())
		}
		h.Write([]byte{'\x1e'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSmallWorldAnswersPinned runs every pinned statement on the seed-42
// small world and compares the digest of its rows with the pinned one.
func TestSmallWorldAnswersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and builds the small world")
	}
	w := worldgen.Generate(worldgen.SmallConfig())
	store := ingest.NewStore("")
	if err := ingest.Collect(w, store, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(store, core.BuildOptions{SkipTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	stmts := harvestedSelects(t)
	if len(stmts) < 30 {
		t.Fatalf("only %d harvested SELECTs; the harvest looks broken", len(stmts))
	}
	for name, sql := range pinnedExtraSQL {
		stmts[name] = sql
	}
	names := make([]string, 0, len(stmts))
	for name := range stmts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows, err := g.Rel.Query(stmts[name])
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := rowsDigest(rows)
		want, ok := pinnedAnswerSHA[name]
		switch {
		case !ok:
			t.Errorf("%s: no pinned digest; its rows hash to %q (%d rows)", name, got, rows.Len())
		case got != want:
			t.Errorf("%s: digest %s, pinned %s (%d rows)", name, got, want, rows.Len())
		}
	}
	for name := range pinnedAnswerSHA {
		if _, ok := stmts[name]; !ok {
			t.Errorf("%s: pinned, but no such statement", name)
		}
	}
}
