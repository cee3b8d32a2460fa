package crawler

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/simclock"
	"repro/internal/simweb"
)

// scriptedFetcher answers each fetch via fn (which sees the full request,
// including the resilient fetcher's attempt counter).
type scriptedFetcher struct {
	fn    func(simweb.Request) simweb.Response
	calls int
}

func (s *scriptedFetcher) Fetch(req simweb.Request) simweb.Response {
	s.calls++
	return s.fn(req)
}

func (s *scriptedFetcher) FetchFollow(req simweb.Request, maxHops int) (simweb.Response, string) {
	return s.Fetch(req), req.URL
}

func okResp() simweb.Response { return simweb.Response{Status: 200, Body: "ok"} }

func TestRetryRecoversTransientFault(t *testing.T) {
	// Fail attempts 0 and 1, succeed on attempt 2: one logical fetch must
	// come back clean, with the retries visible in the stats.
	inner := &scriptedFetcher{fn: func(req simweb.Request) simweb.Response {
		if req.Attempt < 2 {
			return simweb.Response{Status: 502}
		}
		return okResp()
	}}
	rf := NewResilientFetcher(inner, DefaultResilience(), 42)
	resp := rf.Fetch(simweb.Request{URL: "http://flaky.example.com/", Day: 1})
	if resp.Failed() || resp.Status != 200 {
		t.Fatalf("retry chain did not recover: %+v", resp)
	}
	st := rf.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries / 0 failures", st)
	}
	if st.SimBackoffMS <= 0 {
		t.Fatal("no simulated backoff accounted")
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	inner := &scriptedFetcher{fn: func(simweb.Request) simweb.Response {
		return simweb.Response{Status: 502}
	}}
	rf := NewResilientFetcher(inner, DefaultResilience(), 42)
	resp := rf.Fetch(simweb.Request{URL: "http://down.example.com/", Day: 1})
	if !resp.Failed() {
		t.Fatalf("dead host fetch reported success: %+v", resp)
	}
	if inner.calls != DefaultResilience().MaxAttempts {
		t.Fatalf("inner called %d times, want MaxAttempts=%d", inner.calls, DefaultResilience().MaxAttempts)
	}
	if st := rf.Stats(); st.Failures != 1 {
		t.Fatalf("stats = %+v, want 1 failed chain", st)
	}
}

func TestNonRetryableStatusesAreAnswers(t *testing.T) {
	for _, status := range []int{200, 301, 404} {
		inner := &scriptedFetcher{fn: func(simweb.Request) simweb.Response {
			return simweb.Response{Status: status}
		}}
		rf := NewResilientFetcher(inner, DefaultResilience(), 42)
		rf.Fetch(simweb.Request{URL: "http://a.example.com/", Day: 1})
		if inner.calls != 1 {
			t.Fatalf("status %d retried (%d calls)", status, inner.calls)
		}
	}
}

// TestBreakerLifecycle walks one domain through the full circuit: trip after
// TripAfterDays fully-failed days, short-circuit during the cooldown,
// half-open probes after it, close again on success.
func TestBreakerLifecycle(t *testing.T) {
	healthy := false
	inner := &scriptedFetcher{fn: func(simweb.Request) simweb.Response {
		if healthy {
			return okResp()
		}
		return simweb.Response{Status: 502}
	}}
	cfg := DefaultResilience() // TripAfterDays=2, CooldownDays=3
	rf := NewResilientFetcher(inner, cfg, 42)
	req := func(d simclock.Day) simweb.Request {
		return simweb.Request{URL: "http://dying.example.com/x", Day: d}
	}

	// Days 0 and 1 fail every fetch; the trip is decided when day 2 folds
	// them, so days 0-1 still reach the inner fetcher.
	rf.Fetch(req(0))
	rf.Fetch(req(1))
	if !rf.admit("dying.example.com", 1) {
		t.Fatal("breaker open before TripAfterDays folded")
	}

	// Day 2: folding day 1 completes the 2-day streak -> open. The fetch is
	// short-circuited without touching the inner fetcher.
	before := inner.calls
	resp := rf.Fetch(req(2))
	if !errors.Is(resp.Err, ErrCircuitOpen) || resp.Status != 0 {
		t.Fatalf("want ErrCircuitOpen, got %+v", resp)
	}
	if inner.calls != before {
		t.Fatal("open breaker still reached the inner fetcher")
	}
	if st := rf.Stats(); st.ShortCircuit != 1 {
		t.Fatalf("stats = %+v, want 1 short circuit", st)
	}
	if rf.admit("dying.example.com", 2) {
		t.Fatal("breaker admits fetches while short-circuiting")
	}

	// Day 1+CooldownDays = 4: half-open, probes flow; the domain healed, so
	// the probe succeeds and the next day's fold closes the breaker.
	healthy = true
	if resp := rf.Fetch(req(4)); resp.Failed() {
		t.Fatalf("half-open probe failed against healed host: %+v", resp)
	}
	if !rf.admit("dying.example.com", 5) {
		t.Fatal("breaker still open after successful half-open day")
	}
	if resp := rf.Fetch(req(5)); resp.Failed() {
		t.Fatalf("closed-breaker fetch failed: %+v", resp)
	}
}

// TestHalfOpenFailureRestartsCooldown: if the half-open probes all fail the
// breaker stays open and the cooldown starts over.
func TestHalfOpenFailureRestartsCooldown(t *testing.T) {
	inner := &scriptedFetcher{fn: func(simweb.Request) simweb.Response {
		return simweb.Response{Status: 502}
	}}
	rf := NewResilientFetcher(inner, DefaultResilience(), 42)
	req := func(d simclock.Day) simweb.Request {
		return simweb.Request{URL: "http://gone.example.com/", Day: d}
	}
	rf.Fetch(req(0))
	rf.Fetch(req(1))
	rf.Fetch(req(4)) // half-open probe, fails
	// Day 5 folds the failed probe day: cooldown restarts from day 4.
	resp := rf.Fetch(req(5))
	if !errors.Is(resp.Err, ErrCircuitOpen) {
		t.Fatalf("cooldown did not restart after failed half-open day: %+v", resp)
	}
	// Day 4+CooldownDays = 7: half-open again.
	if resp := rf.Fetch(req(7)); errors.Is(resp.Err, ErrCircuitOpen) {
		t.Fatal("probe blocked after restarted cooldown elapsed")
	}
}

// TestDaySuccessKeepsBreakerClosed: a day with even one successful chain
// resets the failure streak.
func TestDaySuccessKeepsBreakerClosed(t *testing.T) {
	day := simclock.Day(0)
	inner := &scriptedFetcher{fn: func(req simweb.Request) simweb.Response {
		if req.Attempt == 0 && int(req.Day)%2 == 0 {
			return simweb.Response{Status: 502} // transient: retry clears it
		}
		return okResp()
	}}
	rf := NewResilientFetcher(inner, DefaultResilience(), 42)
	for ; day < 10; day++ {
		resp := rf.Fetch(simweb.Request{URL: "http://flappy.example.com/", Day: day})
		if resp.Failed() {
			t.Fatalf("day %d chain failed: %+v", day, resp)
		}
	}
	if !rf.admit("flappy.example.com", 10) {
		t.Fatal("breaker opened despite every chain succeeding")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	rf := NewResilientFetcher(&scriptedFetcher{fn: func(simweb.Request) simweb.Response { return okResp() }},
		DefaultResilience(), 7)
	rf2 := NewResilientFetcher(&scriptedFetcher{fn: func(simweb.Request) simweb.Response { return okResp() }},
		DefaultResilience(), 7)
	for a := 0; a < 5; a++ {
		got := rf.backoffMS("d.example.com", 3, a)
		if got != rf2.backoffMS("d.example.com", 3, a) {
			t.Fatalf("attempt %d backoff not deterministic", a)
		}
		base := int64(rf.Cfg.BaseBackoffMS) << uint(a)
		if cap := int64(rf.Cfg.MaxBackoffMS); base > cap {
			base = cap
		}
		if got < base || got > base+base/2 {
			t.Fatalf("attempt %d backoff %d outside [%d, %d]", a, got, base, base+base/2)
		}
	}
	// Different attempts must draw different jitter (independent coins).
	if rf.backoffMS("d.example.com", 3, 1)*2 == rf.backoffMS("d.example.com", 3, 2) &&
		rf.backoffMS("d.example.com", 5, 1)*2 == rf.backoffMS("d.example.com", 5, 2) {
		t.Fatal("jitter identical across attempts: finalizer not mixing")
	}
}

// TestRestoreWithoutIdleBreakers: ExportState leaves idle breakers out, so
// a fetcher restored from it lacks breakers the original still holds. Over
// every later day the two must still short-circuit the same fetches, report
// the same breaker state, keep the same FetchStats and export the same
// state. Domains fail, flap, recover and go unfetched by a hash of (domain,
// day), and the run is cut at several days.
func TestRestoreWithoutIdleBreakers(t *testing.T) {
	const domains, days = 24, 40
	coin := func(dom int, d simclock.Day, salt uint64) uint64 {
		x := uint64(dom)*0x9e3779b97f4a7c15 ^ uint64(d)*0xbf58476d1ce4e5b9 ^ salt
		x ^= x >> 31
		x *= 0x94d049bb133111eb
		return (x ^ x>>29) % 10
	}
	domainOf := func(i int) string { return fmt.Sprintf("d%02d.example.com", i) }
	inner := &scriptedFetcher{fn: func(req simweb.Request) simweb.Response {
		var i int
		fmt.Sscanf(req.URL, "http://d%02d.", &i)
		switch c := coin(i, req.Day, 1); {
		case i%4 == 0 && req.Day >= 6 && req.Day < 16, c < 3:
			return simweb.Response{Status: 502} // down all day
		case c < 5 && req.Attempt == 0:
			return simweb.Response{Status: 503} // a retry clears it
		}
		return okResp()
	}}
	// day runs one crawl day on rf and returns what each fetch decided.
	day := func(rf *ResilientFetcher, d simclock.Day) []string {
		var out []string
		for i := 0; i < domains; i++ {
			open := !rf.admit(domainOf(i), d)
			if coin(i, d, 2) < 3 {
				// Not crawled today: the breaker is folded, and its day
				// ends with no fetch at all.
				out = append(out, fmt.Sprintf("%d open=%v", i, open))
				continue
			}
			resp := rf.Fetch(simweb.Request{URL: "http://" + domainOf(i) + "/", Day: d})
			out = append(out, fmt.Sprintf("%d open=%v short=%v status=%d", i, open, errors.Is(resp.Err, ErrCircuitOpen), resp.Status))
		}
		return out
	}
	dropped := 0
	for _, cut := range []simclock.Day{3, 9, 14, 22} {
		orig := NewResilientFetcher(inner, DefaultResilience(), 42)
		for d := simclock.Day(0); d < cut; d++ {
			day(orig, d)
		}
		st := orig.ExportState()
		dropped += len(orig.breakers) - len(st.Breakers)
		resumed := NewResilientFetcher(inner, DefaultResilience(), 42)
		resumed.RestoreState(st)
		for d := cut; d < days; d++ {
			if a, b := day(orig, d), day(resumed, d); !reflect.DeepEqual(a, b) {
				t.Fatalf("cut %d, day %d: decisions differ\noriginal: %v\nresumed:  %v", cut, d, a, b)
			}
			if a, b := orig.Stats(), resumed.Stats(); a != b {
				t.Fatalf("cut %d, day %d: stats %+v != %+v", cut, d, a, b)
			}
			if a, b := orig.ExportState(), resumed.ExportState(); !reflect.DeepEqual(a, b) {
				t.Fatalf("cut %d, day %d: exports differ\noriginal: %+v\nresumed:  %+v", cut, d, a, b)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no export left an idle breaker out; the test exercises nothing")
	}
}
