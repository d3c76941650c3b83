// Package iptrie implements an IPv4 binary (Patricia-style) trie for
// longest-prefix matching. iGDB's bdrmap substrate uses it to map traceroute
// hop addresses to the origin AS of the most specific covering BGP prefix.
package iptrie

import (
	"fmt"
	"net"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR prefix in host byte order.
type Prefix struct {
	Addr uint32 // network address with host bits zeroed
	Len  int    // prefix length, 0..32
}

// ParsePrefix parses "a.b.c.d/len". Host bits are zeroed.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("iptrie: prefix %q missing /len", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	plen, err := strconv.Atoi(s[slash+1:])
	if err != nil || plen < 0 || plen > 32 {
		return Prefix{}, fmt.Errorf("iptrie: bad prefix length in %q", s)
	}
	return Prefix{Addr: addr & Mask(plen), Len: plen}, nil
}

// MustParsePrefix parses s and panics on error; for tests and constants.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the prefix as CIDR.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", FormatAddr(p.Addr), p.Len)
}

// Contains reports whether addr is covered by the prefix.
func (p Prefix) Contains(addr uint32) bool {
	return addr&Mask(p.Len) == p.Addr
}

// Mask returns the network mask for a prefix length.
func Mask(plen int) uint32 {
	if plen <= 0 {
		return 0
	}
	if plen >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - plen)
}

// ParseAddr parses a dotted-quad IPv4 address into host byte order.
func ParseAddr(s string) (uint32, error) {
	ip := net.ParseIP(s)
	if ip == nil {
		return 0, fmt.Errorf("iptrie: bad address %q", s)
	}
	v4 := ip.To4()
	if v4 == nil {
		return 0, fmt.Errorf("iptrie: %q is not IPv4", s)
	}
	return uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3]), nil
}

// MustParseAddr parses s and panics on error.
func MustParseAddr(s string) uint32 {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// FormatAddr renders a host-order IPv4 address as a dotted quad.
func FormatAddr(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

type node struct {
	children [2]*node
	hasValue bool
	value    int
}

// Trie maps IPv4 prefixes to integer values (ASNs in iGDB) with
// longest-prefix-match lookup.
type Trie struct {
	root node
	size int
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Len returns the number of stored prefixes.
func (t *Trie) Len() int { return t.size }

// Insert associates value with the prefix, replacing any previous value for
// exactly that prefix.
func (t *Trie) Insert(p Prefix, value int) {
	n := &t.root
	for i := 0; i < p.Len; i++ {
		bit := (p.Addr >> (31 - uint(i))) & 1
		if n.children[bit] == nil {
			n.children[bit] = &node{}
		}
		n = n.children[bit]
	}
	if !n.hasValue {
		t.size++
	}
	n.hasValue = true
	n.value = value
}

// Lookup returns the value of the most specific prefix covering addr.
func (t *Trie) Lookup(addr uint32) (value int, ok bool) {
	n := &t.root
	if n.hasValue {
		value, ok = n.value, true
	}
	for i := 0; i < 32 && n != nil; i++ {
		bit := (addr >> (31 - uint(i))) & 1
		n = n.children[bit]
		if n != nil && n.hasValue {
			value, ok = n.value, true
		}
	}
	return value, ok
}
