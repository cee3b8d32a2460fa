package crawler

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/simclock"
)

// This file exports and restores the crawler's mutable state for durable
// checkpoints. The verdict cache is state, not memoisation: whether a
// domain is re-fetched depends on when it was last checked, so a resumed
// run must see exactly the cache the interrupted run had. Likewise the
// circuit breakers — an open breaker short-circuits fetches, and losing it
// would change which requests reach the fault layer.

// CachedVerdict is one serialized verdict-cache entry.
type CachedVerdict struct {
	Domain  string
	Verdict Verdict
}

// CrawlerState is the crawler's complete mutable state.
type CrawlerState struct {
	Entries []CachedVerdict // sorted by Domain
	Fetches int64
}

// ExportCache captures the verdict cache. Safe to call when no checks are
// in flight (the day pipeline is quiescent between days). It keeps the
// previous export's domain order: the IDs cached since are sorted and
// merged into it, and every entry's verdict is read from the cache, so a
// re-verified domain needs no merge and the cache is never sorted whole
// again.
func (c *Crawler) ExportCache() CrawlerState {
	names := c.Domains.Names()
	var add []int32
	for id := range int32(c.cache.Len()) {
		if e := c.cache.At(id); e.cached && !e.listed {
			e.listed = true
			add = append(add, id)
		}
	}
	slices.SortFunc(add, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	order := c.spare[:0]
	i := 0
	for _, id := range add {
		for i < len(c.order) && names[c.order[i]] < names[id] {
			order = append(order, c.order[i])
			i++
		}
		order = append(order, id)
	}
	order = append(order, c.order[i:]...)
	c.order, c.spare = order, c.order
	st := CrawlerState{Fetches: c.fetches.Load()}
	if len(order) > 0 {
		st.Entries = make([]CachedVerdict, len(order))
		for k, id := range order {
			st.Entries[k] = CachedVerdict{Domain: names[id], Verdict: c.cache.At(id).v}
		}
	}
	return st
}

// RestoreCache overwrites the verdict cache with a previously exported
// snapshot, interning its domains in Domains. Its sorted entries become
// the next export's merge base.
func (c *Crawler) RestoreCache(st CrawlerState) {
	c.cache.Clear()
	order := make([]int32, len(st.Entries))
	sorted := true
	for i, e := range st.Entries {
		order[i] = c.Domains.Intern(e.Domain)
		if i > 0 && st.Entries[i-1].Domain >= e.Domain {
			sorted = false
		}
	}
	c.cache.Grow(c.Domains.Len())
	for i, e := range st.Entries {
		*c.cache.At(order[i]) = cacheEntry{v: e.Verdict, cached: true, listed: sorted}
	}
	// A list out of order (a hand-made snapshot) is not a merge base; the
	// next export then sorts every cached domain.
	c.order, c.spare = nil, nil
	if sorted {
		c.order = order
	}
	c.fetches.Store(st.Fetches)
}

// BreakerState is one domain's serialized circuit-breaker state.
type BreakerState struct {
	Domain   string
	CurDay   simclock.Day
	DayFail  int
	DaySucc  int
	FailDays int
	Open     bool
	OpenedOn simclock.Day
}

// ResilientState is the resilient fetcher's complete mutable state.
type ResilientState struct {
	Breakers []BreakerState // sorted by Domain
	Stats    FetchStats
}

// ExportState captures the fetcher's breakers and workload accounting.
// Idle breakers (closed, no failing streak, no failure on their live day)
// are left out: the next day that touches one folds it into the breaker
// breakerFor creates for an unseen domain, so a restore without it decides
// every later fetch the same way. Most domains fetched under faults have
// an idle breaker, so the export stays the size of the failing set.
func (rf *ResilientFetcher) ExportState() ResilientState {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	st := ResilientState{Stats: rf.stats}
	for dom, br := range rf.breakers {
		if br.idle() {
			continue
		}
		st.Breakers = append(st.Breakers, BreakerState{
			Domain:   dom,
			CurDay:   br.curDay,
			DayFail:  br.dayFail,
			DaySucc:  br.daySucc,
			FailDays: br.failDays,
			Open:     br.open,
			OpenedOn: br.openedOn,
		})
	}
	sort.Slice(st.Breakers, func(i, j int) bool { return st.Breakers[i].Domain < st.Breakers[j].Domain })
	return st
}

// RestoreState overwrites the fetcher's breakers and accounting. The retry
// policy and jitter seed are wiring rebuilt from config and study seed.
func (rf *ResilientFetcher) RestoreState(st ResilientState) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.stats = st.Stats
	rf.breakers = make(map[string]*breaker, len(st.Breakers))
	for _, bs := range st.Breakers {
		rf.breakers[bs.Domain] = &breaker{
			curDay:   bs.CurDay,
			dayFail:  bs.DayFail,
			daySucc:  bs.DaySucc,
			failDays: bs.FailDays,
			open:     bs.Open,
			openedOn: bs.OpenedOn,
		}
	}
}
