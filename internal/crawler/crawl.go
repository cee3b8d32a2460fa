package crawler

import (
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// crawlShards is the number of verdict-cache shards. Domain checks are the
// observe phase's dominant shared-state traffic; sharding the cache by
// domain lets the crawl pool's workers, which check different domains,
// publish verdicts without queueing on one global mutex.
const crawlShards = 64 // power of two

// crawlShard is one shard of the verdict cache: the verdicts of the domains
// hashing here, under one lock.
type crawlShard struct {
	mu    sync.Mutex
	cache map[string]Verdict
	// published lists the domains this shard's cache wrote since the last
	// export, new or re-verified, kept only once track is set (by the
	// first export or a restore), so a study that never exports records
	// nothing.
	published []string
	track     bool
}

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

	shards [crawlShards]crawlShard
	// fetches counts detector invocations (for workload accounting).
	fetches atomic.Int64
	// exported is the last ExportCache's entries (nil until one), shared
	// with that snapshot and never written in place: with the shards'
	// published lists, every cached verdict.
	exported []CachedVerdict

	// Telemetry handles (nil until Instrument; nil handles are no-ops).
	cDetector *telemetry.Counter
	cCacheHit *telemetry.Counter
	poolObs   parallel.PoolObserver
}

func (c *Crawler) shard(domain string) *crawlShard {
	return &c.shards[shard.Hash(domain)&(crawlShards-1)]
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

// New returns a Crawler over the given detector.
func New(det *Detector) *Crawler {
	return &Crawler{Det: det, RecheckDays: 4, Workers: 8}
}

// CheckDomain returns the verdict for a domain, fetching only when the
// cache does not already answer: clean domains are never re-fetched,
// poisoned domains are re-verified every RecheckDays. Safe for concurrent
// use, but two concurrent checks of one domain each run the detector and
// the later publish wins; CheckDomains gives each domain to one worker.
func (c *Crawler) CheckDomain(domain, sampleURL string, day simclock.Day) Verdict {
	sh := c.shard(domain)
	sh.mu.Lock()
	v, seen := sh.cache[domain]
	sh.mu.Unlock()
	if seen && (!v.Cloaked || int(day-v.CheckedDay) < c.RecheckDays) {
		c.cCacheHit.Inc()
		return v
	}
	nv := c.Det.CheckURL(sampleURL, day)
	c.cDetector.Inc()
	c.fetches.Add(1)
	out := mergeVerdict(v, seen, nv, day)
	// Unknown checks (transient fetch failures) are not cached: the next
	// query retries them rather than freezing a "clean" verdict. (A stale
	// cloaked verdict that absorbed a failed recheck is still cached — the
	// merge kept the stronger verdict.)
	if out.Unknown && !out.Cloaked {
		return out
	}
	sh.mu.Lock()
	if sh.cache == nil {
		sh.cache = make(map[string]Verdict)
	}
	if sh.track {
		sh.published = append(sh.published, domain)
	}
	sh.cache[domain] = out
	sh.mu.Unlock()
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
type DomainJob struct {
	Domain string
	Checks []DomainCheck
}

// CheckDomains runs a day's jobs on the shared worker pool, clamped to the
// job count. Each job's checks run in order on one worker, so when no
// domain appears in two jobs, every domain sees the same sequence of
// lookups, and the same fetches, at any worker count.
func (c *Crawler) CheckDomains(jobs []DomainJob, day simclock.Day) {
	parallel.ForEachObserved(c.Workers, len(jobs), func(i int) {
		j := &jobs[i]
		for _, ck := range j.Checks {
			*ck.Out = c.CheckDomain(j.Domain, ck.URL, day)
		}
	}, c.poolObs)
}

// Fetches reports how many detector invocations the cache allowed through.
func (c *Crawler) Fetches() int {
	return int(c.fetches.Load())
}

// Cached returns the cached verdict for a domain, if any.
func (c *Crawler) Cached(domain string) (Verdict, bool) {
	sh := c.shard(domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.cache[domain]
	return v, ok
}
