// Package lockorder is igdblint golden-corpus input: lock release on all
// paths, double-Lock, RLock upgrade, TryLock branches, and the seeded
// AB/BA acquisition cycle the project-wide graph must report with both
// sites.
package lockorder

import "sync"

type accounts struct {
	mu sync.Mutex
}

type ledger struct {
	mu sync.Mutex
}

var a accounts
var l ledger

// transferAB establishes the ordering accounts.mu -> ledger.mu.
func transferAB() {
	a.mu.Lock()
	defer a.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
}

// transferBA acquires in the opposite order, closing the cycle. The report
// names both acquisition sites: line 24 (AB) and line 33 (BA).
func transferBA() {
	l.mu.Lock()
	defer l.mu.Unlock()
	a.mu.Lock() // want `lockorder: potential deadlock: lockorder.accounts.mu is acquired before lockorder.ledger.mu at lockorder.go:24, but lockorder.ledger.mu is acquired before lockorder.accounts.mu at lockorder.go:33`
	defer a.mu.Unlock()
}

// leaky forgets the unlock on the early return.
func leaky(cond bool) {
	a.mu.Lock() // want `lockorder: a.mu is locked here but may not be released on every return path`
	if cond {
		return
	}
	a.mu.Unlock()
}

// double re-acquires a mutex the same goroutine already holds.
func double() {
	a.mu.Lock()
	a.mu.Lock() // want `lockorder: a.mu is locked again while already held`
	a.mu.Unlock()
	a.mu.Unlock()
}

type cache struct {
	mu sync.RWMutex
}

var c cache

// upgrade promotes a read lock to a write lock, which deadlocks.
func upgrade() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.mu.Lock() // want `lockorder: c.mu is upgraded from RLock`
	defer c.mu.Unlock()
}

// tryClean is the TryLock idiom: the lock is held only on the success
// branch, and released there. No findings.
func tryClean() bool {
	if !a.mu.TryLock() {
		return false
	}
	defer a.mu.Unlock()
	return true
}

// branchesClean releases on every path, including the early return.
func branchesClean(cond bool) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
}

// Used here so the callgraph rule reports none of the corpus's functions.
var _ = []any{transferAB, transferBA, leaky, double, upgrade, tryClean, branchesClean}
