package crawler

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// crawlShards is the number of verdict-cache shards. Domain checks are the
// observe phase's dominant shared-state traffic; sharding the cache and its
// singleflight table by domain removes the single global mutex every worker
// used to queue on.
const crawlShards = 64 // power of two

// crawlShard is one shard of the crawler's per-domain state: the verdict
// cache and the in-flight detector runs for the domains hashing here. All
// per-domain transitions (consult, adopt in-flight, publish) happen under
// one shard's lock, preserving the exact single-mutex semantics per domain.
type crawlShard struct {
	mu       sync.Mutex
	cache    map[string]Verdict
	inflight map[string]*inflightCall
	// added lists the domains this shard's cache gained since the last
	// export, kept only once track is set (by the first export or a
	// restore), so a study that never exports records nothing.
	added []string
	track bool
}

// Crawler wraps a Detector with the §4.1.2 workload reductions: domains
// previously seen and not detected as poisoned are not re-crawled, and
// poisoned domains are re-verified on a short period rather than daily
// (the paper notes its own crawler can lag campaigns' redirect changes,
// footnote 7). A bounded worker pool fans fetches out, and concurrent
// checks of the same domain are collapsed into a single detector run so
// parallel callers (the per-vertical observe phase) never duplicate work.
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
	// exported is the sorted domain list of the last ExportCache (nil
	// until one): with the shards' added lists, every cached domain.
	exported []string

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

// inflightCall is one in-progress detector run. The runner stores its raw
// verdict in v before closing done; waiters read v only after <-done (the
// close establishes the happens-before edge).
type inflightCall struct {
	done chan struct{}
	v    Verdict
}

// New returns a Crawler over the given detector.
func New(det *Detector) *Crawler {
	return &Crawler{Det: det, RecheckDays: 4, Workers: 8}
}

// CheckDomain returns the verdict for a domain, fetching only when the
// cache does not already answer: clean domains are never re-fetched,
// poisoned domains are re-verified every RecheckDays. Safe for concurrent
// use; concurrent callers for the same domain share one detector run.
//
// A caller that finds another goroutine's run in flight adopts that run's
// verdict directly (merged against the same cache snapshot the runner saw)
// instead of looping back to re-consult the cache. This bounds the wait to
// a single re-consult even when the racing run returns a weaker,
// uncacheable verdict — the old retry loop could spin for as long as other
// callers kept the domain in flight — and guarantees every concurrent
// caller for a (domain, day) pair returns the identical verdict, which the
// deterministic day pipeline depends on.
func (c *Crawler) CheckDomain(domain, sampleURL string, day simclock.Day) Verdict {
	sh := c.shard(domain)
	sh.mu.Lock()
	v, seen := sh.cache[domain]
	if seen && (!v.Cloaked || int(day-v.CheckedDay) < c.RecheckDays) {
		sh.mu.Unlock()
		c.cCacheHit.Inc()
		return v
	}
	if call, busy := sh.inflight[domain]; busy {
		// Another goroutine is already running the detector for this
		// domain. The cache entry cannot change until that run publishes
		// (only the runner writes it, under the same shard lock that
		// removes the inflight entry), so the (v, seen) snapshot taken
		// above is exactly the snapshot the runner started from — applying
		// the same merge rule to the runner's verdict yields the same
		// result the runner returns, with no re-consult loop. It counts as
		// a cache hit: this caller runs no detector, and whether it finds
		// the verdict cached or still in flight is down to scheduling.
		sh.mu.Unlock()
		c.cCacheHit.Inc()
		<-call.done
		return mergeVerdict(v, seen, call.v, day)
	}
	call := &inflightCall{done: make(chan struct{})}
	if sh.inflight == nil {
		sh.inflight = make(map[string]*inflightCall)
	}
	sh.inflight[domain] = call
	sh.mu.Unlock()

	nv := c.Det.CheckURL(sampleURL, day)
	c.cDetector.Inc()

	sh.mu.Lock()
	c.fetches.Add(1)
	delete(sh.inflight, domain)
	call.v = nv
	close(call.done)
	out := mergeVerdict(v, seen, nv, day)
	// Unknown checks (transient fetch failures) are not cached: the next
	// query retries them rather than freezing a "clean" verdict. (A stale
	// cloaked verdict that absorbed a failed recheck is still cached — the
	// merge kept the stronger verdict.)
	if !(out.Unknown && !out.Cloaked) {
		if sh.cache == nil {
			sh.cache = make(map[string]Verdict)
		}
		if sh.track && !seen {
			sh.added = append(sh.added, domain)
		}
		sh.cache[domain] = out
	}
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

// CheckDomains fans CheckDomain over many domains with the shared worker
// pool and returns the verdicts keyed by domain. The pool never exceeds the
// job count, and each verdict slot is written by exactly one worker, so the
// result is independent of scheduling.
func (c *Crawler) CheckDomains(urls map[string]string, day simclock.Day) map[string]Verdict {
	type job struct{ domain, url string }
	jobs := make([]job, 0, len(urls))
	for dom, u := range urls {
		jobs = append(jobs, job{dom, u})
	}
	// Deterministic order keeps the fetch sequence stable across runs.
	// Domains are unique map keys, so any correct sort gives one order.
	slices.SortFunc(jobs, func(a, b job) int { return strings.Compare(a.domain, b.domain) })

	verdicts := make([]Verdict, len(jobs))
	parallel.ForEachObserved(c.Workers, len(jobs), func(i int) {
		verdicts[i] = c.CheckDomain(jobs[i].domain, jobs[i].url, day)
	}, c.poolObs)
	out := make(map[string]Verdict, len(jobs))
	for i, j := range jobs {
		out[j.domain] = verdicts[i]
	}
	return out
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

// Invalidate drops a domain from the cache (used when the world knows the
// domain changed hands, e.g. after a seizure is served).
func (c *Crawler) Invalidate(domain string) {
	sh := c.shard(domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.cache, domain)
}
