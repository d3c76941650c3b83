// Package guarded is igdblint golden-corpus input: mutex guard
// annotations on struct fields, checked path-sensitively — the lock must
// be held at the access point, not merely somewhere in the method.
package guarded

import "sync"

type counter struct {
	mu sync.RWMutex
	n  int            // guarded by mu
	m  map[string]int // guarded by mu
}

func (c *counter) inc(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.m[k]++
}

func (c *counter) snapshot() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

func (c *counter) racyRead() int {
	return c.n // want `guardedby: c.n is guarded by mu but this path does not hold it`
}

func (c *counter) racyWrite(k string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.m[k]++ // want `guardedby: c.m is written under mu.RLock`
}

// afterUnlock accesses the field after the explicit release — the old
// whole-method check missed this; the path-sensitive one does not.
func (c *counter) afterUnlock() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n + c.n // want `guardedby: c.n is guarded by mu but this path does not hold it`
}

// partialPath locks on only one branch; the merge point is unprotected.
func (c *counter) partialPath(b bool) int {
	if b {
		c.mu.RLock()
		defer c.mu.RUnlock()
	}
	return c.n // want `guardedby: c.n is guarded by mu but this path does not hold it`
}

// earlyUnlock releases correctly on both branches before returning. Clean.
func (c *counter) earlyUnlock(k string) int {
	c.mu.RLock()
	if v, ok := c.m[k]; ok {
		c.mu.RUnlock()
		return v
	}
	c.mu.RUnlock()
	return 0
}

// tryLocked holds the lock only on the TryLock success branch. Clean.
func (c *counter) tryLocked() int {
	if c.mu.TryLock() {
		defer c.mu.Unlock()
		return c.n
	}
	return -1
}

// Used here so the callgraph rule reports none of the corpus's functions.
var _ = []any{(*counter).inc, (*counter).snapshot, (*counter).racyRead, (*counter).racyWrite, (*counter).afterUnlock, (*counter).partialPath, (*counter).earlyUnlock, (*counter).tryLocked}
