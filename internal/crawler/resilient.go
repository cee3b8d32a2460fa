package crawler

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/simclock"
	"repro/internal/simweb"
	"repro/internal/telemetry"
)

// ErrCircuitOpen is carried on responses the resilient fetcher short-
// circuits because the target domain's breaker is open: the domain has
// failed every fetch for TripAfterDays consecutive crawl days and is not
// yet due a half-open probe.
var ErrCircuitOpen = errors.New("crawler: circuit breaker open")

// Resilience tunes the retry and circuit-breaker behaviour of a
// ResilientFetcher.
type Resilience struct {
	// MaxAttempts bounds fetch attempts per request (1 = no retries).
	MaxAttempts int
	// BaseBackoffMS is the first retry's simulated backoff; each further
	// retry doubles it. Backoff is sim-clock time: no real sleeping happens,
	// the delay is accounted in Stats so a study can report how much crawl
	// time faults cost.
	BaseBackoffMS int
	// MaxBackoffMS caps a single backoff step.
	MaxBackoffMS int
	// TripAfterDays is how many consecutive crawl days a domain must fail
	// every fetch before its breaker opens.
	TripAfterDays int
	// CooldownDays is how many days an open breaker waits before going
	// half-open and letting probes through again.
	CooldownDays int
}

// DefaultResilience returns the retry/breaker configuration the study uses
// under fault injection.
func DefaultResilience() Resilience {
	return Resilience{
		MaxAttempts:   3,
		BaseBackoffMS: 500,
		MaxBackoffMS:  8000,
		TripAfterDays: 2,
		CooldownDays:  3,
	}
}

// FetchStats is the resilient fetcher's workload accounting.
type FetchStats struct {
	Attempts     int   // total fetch attempts, including retries
	Retries      int   // attempts beyond the first
	Failures     int   // fetch chains that failed after all retries
	ShortCircuit int   // requests answered by an open breaker
	SimBackoffMS int64 // total simulated backoff time spent
}

// breaker is one domain's circuit-breaker state. Outcomes are aggregated
// per crawl day and folded only when a *later* day first touches the
// domain, so the trip decision for day d depends exclusively on completed
// days — aggregate counts are order-independent, which keeps the breaker
// (and therefore every verdict) deterministic at any GOMAXPROCS.
type breaker struct {
	curDay   simclock.Day // day the live tallies belong to
	dayFail  int          // failed chains on curDay
	daySucc  int          // successful chains on curDay
	failDays int          // consecutive fully-failed days folded so far
	open     bool
	openedOn simclock.Day
}

// idle reports whether the breaker folds, on the next day that touches
// it, into the breaker breakerFor creates for a domain it has never seen:
// closed, no failing streak and no failure today (successes fold away).
func (br *breaker) idle() bool {
	return !br.open && br.failDays == 0 && br.dayFail == 0
}

// ResilientFetcher wraps a Fetcher with bounded retries, deterministic
// sim-clock exponential backoff with jitter, and per-domain circuit
// breakers. It is mounted between the fault-injection layer and the
// detector when a study runs with faults enabled; with faults disabled the
// pipeline bypasses it entirely, so the faults-off hot path is untouched.
type ResilientFetcher struct {
	Inner simweb.Fetcher
	Cfg   Resilience

	// jitterSeed decorrelates backoff jitter across studies; it is derived
	// from the study RNG. Jitter itself is a pure hash of (domain, day,
	// attempt), never a sequential draw, so retry timing is identical at
	// any scheduling.
	jitterSeed uint64

	mu       sync.Mutex
	breakers map[string]*breaker
	stats    FetchStats

	// Telemetry handles (nil until Instrument; nil handles are no-ops).
	// Counters mirror FetchStats live so /metrics shows the crawl moving;
	// they never feed back into retry or breaker decisions.
	cAttempts *telemetry.Counter
	cRetries  *telemetry.Counter
	cFailures *telemetry.Counter
	cShort    *telemetry.Counter
	cTrips    *telemetry.Counter
	cBackoff  *telemetry.Counter
	hAttempts *telemetry.Histogram
}

// Instrument registers the fetcher's runtime metrics on reg (a nil reg
// leaves the fetcher uninstrumented). Exposed metrics:
// crawler_fetch_attempts_total, crawler_fetch_retries_total,
// crawler_fetch_failures_total, crawler_breaker_short_circuit_total,
// crawler_breaker_trips_total, crawler_backoff_sim_ms_total and the
// crawler_attempts_per_chain histogram (retry amplification).
func (rf *ResilientFetcher) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	rf.cAttempts = reg.Counter("crawler_fetch_attempts_total")
	rf.cRetries = reg.Counter("crawler_fetch_retries_total")
	rf.cFailures = reg.Counter("crawler_fetch_failures_total")
	rf.cShort = reg.Counter("crawler_breaker_short_circuit_total")
	rf.cTrips = reg.Counter("crawler_breaker_trips_total")
	rf.cBackoff = reg.Counter("crawler_backoff_sim_ms_total")
	rf.hAttempts = reg.Histogram("crawler_attempts_per_chain", telemetry.CountBuckets())
}

// NewResilientFetcher wraps inner with the given policy. jitterSeed should
// come from the study RNG (e.g. r.Sub("crawler/backoff").Uint64()).
func NewResilientFetcher(inner simweb.Fetcher, cfg Resilience, jitterSeed uint64) *ResilientFetcher {
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 1
	}
	return &ResilientFetcher{
		Inner:      inner,
		Cfg:        cfg,
		jitterSeed: jitterSeed,
		breakers:   make(map[string]*breaker),
	}
}

// Stats returns a snapshot of the workload accounting.
func (rf *ResilientFetcher) Stats() FetchStats {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.stats
}

// Fetch implements simweb.Fetcher: consult the domain's breaker, then try
// the inner fetcher up to MaxAttempts times, backing off (in simulated
// time) between attempts. The chain's outcome — not each attempt — feeds
// the breaker, so one flaky-but-recovering fetch counts as a success.
func (rf *ResilientFetcher) Fetch(req simweb.Request) simweb.Response {
	domain := hostOf(req.URL)
	if !rf.admit(domain, req.Day) {
		rf.mu.Lock()
		rf.stats.ShortCircuit++
		rf.mu.Unlock()
		rf.cShort.Inc()
		return simweb.Response{Status: 0, Err: ErrCircuitOpen}
	}
	var resp simweb.Response
	var backoff int64
	attempts := 0
	for a := 0; a < rf.Cfg.MaxAttempts; a++ {
		req.Attempt = a
		resp = rf.Inner.Fetch(req)
		attempts++
		if !retryable(resp) {
			break
		}
		if a < rf.Cfg.MaxAttempts-1 {
			backoff += rf.backoffMS(domain, req.Day, a)
		}
	}
	failed := resp.Failed()
	rf.mu.Lock()
	rf.stats.Attempts += attempts
	rf.stats.Retries += attempts - 1
	rf.stats.SimBackoffMS += backoff
	if failed {
		rf.stats.Failures++
	}
	br := rf.breakerFor(domain, req.Day)
	if failed {
		br.dayFail++
	} else {
		br.daySucc++
	}
	rf.mu.Unlock()
	rf.cAttempts.Add(int64(attempts))
	rf.cRetries.Add(int64(attempts - 1))
	rf.cBackoff.Add(backoff)
	if failed {
		rf.cFailures.Inc()
	}
	rf.hAttempts.Observe(float64(attempts))
	return resp
}

// FetchFollow implements simweb.Fetcher: each hop of the redirect chain
// gets its own retry budget and breaker consultation (hops usually cross
// domains).
func (rf *ResilientFetcher) FetchFollow(req simweb.Request, maxHops int) (simweb.Response, string) {
	cur := req
	for hop := 0; ; hop++ {
		resp := rf.Fetch(cur)
		if resp.Status < 300 || resp.Status >= 400 || resp.Location == "" || hop >= maxHops {
			return resp, cur.URL
		}
		cur = simweb.Request{
			URL:       simweb.ResolveURL(cur.URL, resp.Location),
			UserAgent: cur.UserAgent,
			Referrer:  cur.Referrer,
			Day:       cur.Day,
		}
	}
}

// retryable reports whether a response is worth another attempt: transport
// errors, truncated bodies, 5xx and 429 are transient; 2xx/3xx/4xx are
// answers.
func retryable(resp simweb.Response) bool {
	return resp.Failed() || resp.Status == 429
}

// backoffMS returns the simulated backoff after attempt a: exponential in
// the attempt number, capped, plus up to 50% deterministic jitter keyed by
// (domain, day, attempt).
func (rf *ResilientFetcher) backoffMS(domain string, day simclock.Day, attempt int) int64 {
	base := int64(rf.Cfg.BaseBackoffMS) << uint(attempt)
	if max := int64(rf.Cfg.MaxBackoffMS); max > 0 && base > max {
		base = max
	}
	if base <= 0 {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%x/%s/%d/%d", rf.jitterSeed, domain, day, attempt)
	// splitmix64 finalizer: FNV-1a alone barely diffuses the trailing
	// attempt digit, which would correlate successive retries' jitter.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / (1 << 53)
	return base + int64(frac*0.5*float64(base))
}

// admit consults (and lazily folds) the domain's breaker for day d. It
// returns false when the breaker is open and the cooldown has not elapsed;
// during a half-open day every probe is admitted — deterministically, where
// admitting "the first" probe would depend on scheduling — and the day's
// aggregate outcome decides whether the breaker closes or re-opens.
func (rf *ResilientFetcher) admit(domain string, d simclock.Day) bool {
	if rf.Cfg.TripAfterDays <= 0 {
		return true
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	br := rf.breakerFor(domain, d)
	if !br.open {
		return true
	}
	// Half-open: past the cooldown, probes flow again.
	return int(d-br.openedOn) >= rf.Cfg.CooldownDays
}

// breakerFor returns the domain's breaker with all days before d folded.
// Callers hold rf.mu. Folding is monotone: the study clock only moves
// forward, and all of day d-1's fetches complete before day d starts (the
// day pipeline is sequential across days), so the fold sees final tallies.
func (rf *ResilientFetcher) breakerFor(domain string, d simclock.Day) *breaker {
	br := rf.breakers[domain]
	if br == nil {
		br = &breaker{curDay: d}
		rf.breakers[domain] = br
	}
	if d > br.curDay {
		rf.fold(br)
		br.curDay = d
	}
	return br
}

// fold finalises the live day's tallies into the breaker state.
func (rf *ResilientFetcher) fold(br *breaker) {
	switch {
	case br.daySucc > 0:
		// Any success resets the streak and closes an open breaker (the
		// half-open probes got through). openedOn is read only while the
		// breaker is open; zeroing it keeps every closed breaker equal to
		// a fresh one once folded.
		br.failDays = 0
		br.open = false
		br.openedOn = 0
	case br.dayFail > 0:
		br.failDays++
		if br.open {
			// Half-open probes all failed: stay open, restart the cooldown.
			br.openedOn = br.curDay
		} else if br.failDays >= rf.Cfg.TripAfterDays {
			br.open = true
			br.openedOn = br.curDay
			rf.cTrips.Inc()
		}
	}
	br.dayFail, br.daySucc = 0, 0
}

// BreakerOpen reports whether a domain's breaker is open as of day d
// (after folding any completed days). Exposed for tests and for studies
// that report degraded-domain counts.
func (rf *ResilientFetcher) BreakerOpen(domain string, d simclock.Day) bool {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	br := rf.breakerFor(domain, d)
	return br.open && int(d-br.openedOn) < rf.Cfg.CooldownDays
}

var _ simweb.Fetcher = (*ResilientFetcher)(nil)
