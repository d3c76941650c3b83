package iptrie

import (
	"math/rand"
	"testing"
)

func TestParseFormatAddr(t *testing.T) {
	cases := []struct {
		s    string
		want uint32
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xFFFFFFFF},
		{"10.0.0.1", 0x0A000001},
		{"192.168.1.2", 0xC0A80102},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.s)
		if err != nil || got != c.want {
			t.Errorf("ParseAddr(%q) = %x, %v; want %x", c.s, got, err, c.want)
		}
		if back := FormatAddr(c.want); back != c.s {
			t.Errorf("FormatAddr(%x) = %q, want %q", c.want, back, c.s)
		}
	}
	for _, bad := range []string{"", "1.2.3", "256.1.1.1", "::1", "banana"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) should fail", bad)
		}
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("10.1.2.3/8")
	if err != nil {
		t.Fatal(err)
	}
	// Host bits zeroed.
	if p.String() != "10.0.0.0/8" {
		t.Errorf("got %s", p)
	}
	if !p.Contains(MustParseAddr("10.255.0.1")) {
		t.Error("10/8 should contain 10.255.0.1")
	}
	if p.Contains(MustParseAddr("11.0.0.1")) {
		t.Error("10/8 should not contain 11.0.0.1")
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8", "10.0.0.0/y"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", bad)
		}
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		plen int
		want uint32
	}{
		{0, 0}, {8, 0xFF000000}, {16, 0xFFFF0000}, {24, 0xFFFFFF00},
		{32, 0xFFFFFFFF}, {-1, 0}, {40, 0xFFFFFFFF},
	}
	for _, c := range cases {
		if got := Mask(c.plen); got != c.want {
			t.Errorf("Mask(%d) = %x, want %x", c.plen, got, c.want)
		}
	}
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	tr := New()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 100)
	tr.Insert(MustParsePrefix("10.1.0.0/16"), 200)
	tr.Insert(MustParsePrefix("10.1.2.0/24"), 300)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	cases := []struct {
		addr string
		want int
		ok   bool
	}{
		{"10.1.2.3", 300, true},
		{"10.1.9.9", 200, true},
		{"10.9.9.9", 100, true},
		{"11.0.0.1", 0, false},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(MustParseAddr(c.addr))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Lookup(%s) = %d,%v; want %d,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	tr := New()
	tr.Insert(MustParsePrefix("0.0.0.0/0"), 7)
	got, ok := tr.Lookup(MustParseAddr("203.0.113.5"))
	if !ok || got != 7 {
		t.Errorf("default route lookup = %d,%v", got, ok)
	}
}

func TestTrieReplace(t *testing.T) {
	tr := New()
	p := MustParsePrefix("192.0.2.0/24")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Errorf("replace should not grow trie: Len=%d", tr.Len())
	}
	if got, _ := tr.Lookup(MustParseAddr("192.0.2.1")); got != 2 {
		t.Errorf("got %d, want replaced value 2", got)
	}
}

func TestTrieMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tr := New()
	var prefixes []Prefix
	var values []int
	for i := 0; i < 500; i++ {
		plen := 8 + r.Intn(17) // /8../24
		addr := r.Uint32() & Mask(plen)
		p := Prefix{Addr: addr, Len: plen}
		tr.Insert(p, i)
		// Linear table keeps the LAST value per exact prefix, like the trie.
		replaced := false
		for j, q := range prefixes {
			if q == p {
				values[j] = i
				replaced = true
				break
			}
		}
		if !replaced {
			prefixes = append(prefixes, p)
			values = append(values, i)
		}
	}
	lpm := func(addr uint32) (int, bool) {
		bestLen, bestVal, ok := -1, 0, false
		for j, p := range prefixes {
			if p.Contains(addr) && p.Len > bestLen {
				bestLen, bestVal, ok = p.Len, values[j], true
			}
		}
		return bestVal, ok
	}
	for q := 0; q < 2000; q++ {
		addr := r.Uint32()
		got, gok := tr.Lookup(addr)
		want, wok := lpm(addr)
		if gok != wok || (gok && got != want) {
			t.Fatalf("addr %s: trie %d,%v vs scan %d,%v", FormatAddr(addr), got, gok, want, wok)
		}
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	tr := New()
	for i := 0; i < 100000; i++ { // ~a realistic RIB slice
		plen := 8 + r.Intn(17)
		tr.Insert(Prefix{Addr: r.Uint32() & Mask(plen), Len: plen}, i)
	}
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = r.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}
