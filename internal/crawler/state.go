package crawler

import (
	"slices"
	"sort"

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

// ExportCache captures the verdict cache across all shards. Safe to call
// when no checks are in flight (the day pipeline is quiescent between
// days). The first export sorts every cached domain; later ones merge the
// domains published since, new or re-verified, into the previous export,
// reading only their verdicts and copying every other entry as it was.
func (c *Crawler) ExportCache() CrawlerState {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	var pub []string
	for i := range c.shards {
		sh := &c.shards[i]
		if c.exported == nil {
			//sslint:ignore maporder pub is sorted before it is read
			for dom := range sh.cache {
				pub = append(pub, dom)
			}
		} else {
			pub = append(pub, sh.published...)
		}
		sh.published, sh.track = sh.published[:0], true
	}
	slices.Sort(pub)
	pub = slices.Compact(pub)
	// The cache only grows between exports, so the previous export's
	// domains and pub together are every cached domain.
	prev := c.exported
	entries := make([]CachedVerdict, 0, len(prev)+len(pub))
	i := 0
	for _, dom := range pub {
		for i < len(prev) && prev[i].Domain < dom {
			entries = append(entries, prev[i])
			i++
		}
		if i < len(prev) && prev[i].Domain == dom {
			i++
		}
		entries = append(entries, CachedVerdict{Domain: dom, Verdict: c.shard(dom).cache[dom]})
	}
	entries = append(entries, prev[i:]...)
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	c.exported = entries
	st := CrawlerState{Fetches: c.fetches.Load(), Entries: entries}
	if len(entries) == 0 {
		st.Entries = nil
	}
	return st
}

// RestoreCache overwrites the verdict cache with a previously exported
// snapshot, whose sorted entries become the next export's merge base.
func (c *Crawler) RestoreCache(st CrawlerState) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.cache = nil
		sh.published, sh.track = nil, true
		sh.mu.Unlock()
	}
	sorted := true
	for i, e := range st.Entries {
		sh := c.shard(e.Domain)
		sh.mu.Lock()
		if sh.cache == nil {
			sh.cache = make(map[string]Verdict)
		}
		sh.cache[e.Domain] = e.Verdict
		sh.mu.Unlock()
		if i > 0 && st.Entries[i-1].Domain >= e.Domain {
			sorted = false
		}
	}
	// A list out of order (a hand-made snapshot) is not a merge base; the
	// next export then sorts the cache from the maps.
	c.exported = nil
	if sorted {
		c.exported = st.Entries
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
