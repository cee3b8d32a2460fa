// Package domid gives the domains a study's search results show dense
// int32 IDs. The search engine names a domain when a result slot first
// takes it; from then on the slot carries the ID beside the string, and
// per-domain state in the day loop (the crawler's verdict cache, the
// observe phase's dedup stamps) is a slice indexed by ID instead of a map
// hashed by name.
//
// IDs are handed out in first-Intern order and depend on history (a
// restored study interns in snapshot order), so nothing a study outputs
// may depend on an ID's value: IDs index state, names order it.
package domid

import "sync"

// Table is an append-only name <-> ID table: IDs count up from 0 and are
// never reused. Safe for concurrent use. Intern and Lookup take the lock
// and hash the name, so the day loop calls them only where a slot changes
// domain or a snapshot is restored, never per lookup.
type Table struct {
	mu    sync.RWMutex
	ids   map[string]int32
	names []string
}

// Intern returns name's ID, giving it the next one if it has none.
func (t *Table) Intern(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// Lookup returns name's ID, if it has one.
func (t *Table) Lookup(name string) (int32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[name]
	return id, ok
}

// Names returns every ID's name, indexed by ID. The slice shares the
// table's storage: callers must not write it, and later Interns do not
// show in it.
func (t *Table) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names[:len(t.names):len(t.names)]
}

// Len returns how many IDs the table has given: every ID is below it.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// pageBits sizes a Column's pages: 4096 IDs each.
const pageBits = 12

// Column holds one T per domain ID, zero until set. It is stored in
// fixed-size pages, so growing it allocates only the new pages: no entry
// is copied or moved, and the slack is under one page. Grow must not run
// concurrently with At; At on distinct IDs may run concurrently.
type Column[T any] struct {
	pages [][]T
}

// Grow makes At valid for every ID below n.
func (c *Column[T]) Grow(n int) {
	for len(c.pages)<<pageBits < n {
		c.pages = append(c.pages, make([]T, 1<<pageBits))
	}
}

// Len returns the bound Grow has made At valid below (a whole number of
// pages).
func (c *Column[T]) Len() int { return len(c.pages) << pageBits }

// At returns id's entry. id must be below Len.
func (c *Column[T]) At(id int32) *T {
	return &c.pages[id>>pageBits][id&(1<<pageBits-1)]
}

// Clear zeroes every entry.
func (c *Column[T]) Clear() {
	for _, p := range c.pages {
		clear(p)
	}
}
