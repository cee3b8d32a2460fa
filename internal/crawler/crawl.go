package crawler

import (
	"sync/atomic"

	"repro/internal/domid"
	"repro/internal/parallel"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Crawler wraps a Detector with the §4.1.2 workload reductions: domains
// previously seen and not detected as poisoned are not re-crawled, and
// poisoned domains are re-verified on a short period rather than daily
// (the paper notes its own crawler can lag campaigns' redirect changes,
// footnote 7). A bounded worker pool fans a day's checks out, one job per
// domain, so each domain is checked by a single goroutine in a fixed
// order.
type Crawler struct {
	Det *Detector
	// RecheckDays is how often a poisoned domain is re-verified so that
	// store-domain rotation is observed.
	RecheckDays int
	// Workers bounds concurrent fetch chains; the pool is always clamped
	// to the number of jobs, and <= 0 selects GOMAXPROCS.
	Workers int
	// Domains names the IDs DomainJobs carry. A study shares the search
	// engine's table, so a job takes its ID from the result slot.
	Domains *domid.Table

	// cache is the verdict cache, indexed by domain ID. It grows only in
	// serial code (before CheckDomains' fan-out and in RestoreCache). During the fan-out each worker writes only the
	// entries of its own jobs' domains, and no domain is in two jobs, so
	// the writes are disjoint and take no lock.
	cache domid.Column[cacheEntry]
	// order is the last export's cached IDs in domain order (each entry
	// marked listed), the base the next export merges new IDs into;
	// spare is the other half of its double buffer.
	order, spare []int32
	// fetches counts detector invocations (for workload accounting).
	fetches atomic.Int64

	// Telemetry handles (nil until Instrument; nil handles are no-ops).
	cDetector *telemetry.Counter
	cCacheHit *telemetry.Counter
	poolObs   parallel.PoolObserver
}

// cacheEntry is one domain's slot in the verdict cache.
type cacheEntry struct {
	v      Verdict
	cached bool // v is the domain's cached verdict
	listed bool // the domain's ID is in order
}

// Instrument registers the crawler's runtime metrics on reg (nil reg is a
// no-op): crawler_detector_runs_total, crawler_cache_hits_total, and the
// pool_crawl_* family describing the domain-check worker pool.
func (c *Crawler) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.cDetector = reg.Counter("crawler_detector_runs_total")
	c.cCacheHit = reg.Counter("crawler_cache_hits_total")
	c.poolObs = reg.Pool("crawl")
}

// New returns a Crawler over the given detector, with a domain table of
// its own.
func New(det *Detector) *Crawler {
	return &Crawler{Det: det, RecheckDays: 4, Workers: 8, Domains: new(domid.Table)}
}

// check returns the verdict for a domain ID the cache has grown to,
// fetching only when the cache does not already answer: clean domains are
// never re-fetched, poisoned domains are re-verified every RecheckDays. It
// writes only the ID's own entry.
func (c *Crawler) check(id int32, sampleURL string, day simclock.Day) Verdict {
	e := c.cache.At(id)
	if e.cached && (!e.v.Cloaked || int(day-e.v.CheckedDay) < c.RecheckDays) {
		c.cCacheHit.Inc()
		return e.v
	}
	nv := c.Det.CheckURL(sampleURL, day)
	c.cDetector.Inc()
	c.fetches.Add(1)
	out := mergeVerdict(e.v, e.cached, nv, day)
	// Unknown checks (transient fetch failures) are not cached: the next
	// query retries them rather than freezing a "clean" verdict. (A stale
	// cloaked verdict that absorbed a failed recheck is still cached — the
	// merge kept the stronger verdict.)
	if out.Unknown && !out.Cloaked {
		return out
	}
	e.v, e.cached = out, true
	return out
}

// mergeVerdict folds a fresh detector verdict into the cache snapshot the
// run started from. A domain once seen cloaking stays attributed even if a
// later check finds it dark (e.g. its campaign stopped): the stronger
// verdict is kept with a refreshed check day.
func mergeVerdict(old Verdict, seen bool, nv Verdict, day simclock.Day) Verdict {
	if seen && old.Cloaked && !nv.Cloaked {
		old.CheckedDay = day
		return old
	}
	return nv
}

// DomainCheck is one lookup within a DomainJob: the sample URL fetched on
// a cache miss, and where CheckDomains stores the verdict.
type DomainCheck struct {
	URL string
	Out *Verdict
}

// DomainJob is one domain's lookups for a day, run in order by one worker.
// ID is the domain's ID in the crawler's Domains table, Domain its name.
type DomainJob struct {
	ID     int32
	Domain string
	Checks []DomainCheck
}

// CheckDomains runs a day's jobs on the shared worker pool, clamped to the
// job count. No domain may appear in two jobs: each job's checks run in
// order on one worker, so every domain sees the same sequence of lookups,
// and the same fetches, at any worker count, and the workers write
// disjoint cache entries.
func (c *Crawler) CheckDomains(jobs []DomainJob, day simclock.Day) {
	c.cache.Grow(c.Domains.Len())
	parallel.ForEachObserved(c.Workers, len(jobs), func(i int) {
		j := &jobs[i]
		for _, ck := range j.Checks {
			*ck.Out = c.check(j.ID, ck.URL, day)
		}
	}, c.poolObs)
}

// Cached returns the cached verdict for a domain, if any.
func (c *Crawler) Cached(domain string) (Verdict, bool) {
	id, ok := c.Domains.Lookup(domain)
	if !ok || int(id) >= c.cache.Len() || !c.cache.At(id).cached {
		return Verdict{}, false
	}
	return c.cache.At(id).v, true
}
