package crawler

import (
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/simweb"
)

// flakyFetcher wraps a Fetcher, failing a deterministic fraction of fetches
// with 502s — the transient network errors any eight-month crawl eats.
type flakyFetcher struct {
	inner simweb.Fetcher
	rate  float64

	mu sync.Mutex
	r  *rng.Source
	// failures counts injected faults.
	failures int
}

func newFlaky(inner simweb.Fetcher, rate float64, seed uint64) *flakyFetcher {
	return &flakyFetcher{inner: inner, rate: rate, r: rng.New(seed)}
}

func (f *flakyFetcher) Fetch(req simweb.Request) simweb.Response {
	f.mu.Lock()
	fail := f.r.Bool(f.rate)
	if fail {
		f.failures++
	}
	f.mu.Unlock()
	if fail {
		return simweb.Response{Status: 502, Body: "bad gateway"}
	}
	return f.inner.Fetch(req)
}

func (f *flakyFetcher) FetchFollow(req simweb.Request, maxHops int) (simweb.Response, string) {
	cur := req
	for hop := 0; ; hop++ {
		resp := f.Fetch(cur)
		if resp.Status < 300 || resp.Status >= 400 || resp.Location == "" || hop >= maxHops {
			return resp, cur.URL
		}
		cur = simweb.Request{URL: resp.Location, UserAgent: cur.UserAgent,
			Referrer: cur.Referrer, Day: cur.Day}
	}
}

func TestFlakyFetchesNeverManufactureCloaking(t *testing.T) {
	f := build(t)
	flaky := newFlaky(f.web, 0.5, 99)
	det := NewDetector(flaky)
	// The benign site, checked through heavy fault injection, must never be
	// reported cloaked.
	for i := 0; i < 200; i++ {
		v := det.CheckURL("http://benign-reviews.org/", simclock.Day(i))
		if v.Cloaked && v.Detector == "dagger-semantic" {
			t.Fatalf("iteration %d: transient failure produced a cloaking verdict: %+v", i, v)
		}
	}
	if flaky.failures == 0 {
		t.Fatal("fault injection inactive")
	}
}

func TestUnknownVerdictsNotCachedAsClean(t *testing.T) {
	f := build(t)
	// Always-failing fetcher first: the verdict must be unknown.
	dead := newFlaky(f.web, 1.0, 7)
	c := New(NewDetector(dead))
	v := checkAll(c, map[string]string{f.doorDom["KEY"]: f.doorURL["KEY"]}, 0)[f.doorDom["KEY"]]
	if v.Cloaked {
		t.Fatalf("dead fetcher produced cloaked verdict: %+v", v)
	}
	if !v.Unknown {
		t.Fatalf("dead fetcher verdict must be unknown: %+v", v)
	}
	if _, cached := c.Cached(f.doorDom["KEY"]); cached {
		t.Fatal("unknown verdict cached")
	}
	// Heal the fetcher: the same crawler must now find the doorway.
	c.Det.F = f.web
	v2 := checkAll(c, map[string]string{f.doorDom["KEY"]: f.doorURL["KEY"]}, 1)[f.doorDom["KEY"]]
	if !v2.Cloaked {
		t.Fatalf("healed crawler missed the doorway: %+v", v2)
	}
}

func TestEventualDetectionUnderFaults(t *testing.T) {
	// With a 40% fault rate, repeated daily checks must still converge on
	// detecting every doorway in the fixture.
	f := build(t)
	flaky := newFlaky(f.web, 0.4, 21)
	c := New(NewDetector(flaky))
	c.RecheckDays = 1
	targets := map[string]string{
		f.doorDom["KEY"]:     f.doorURL["KEY"],
		f.doorDom["NEWSORG"]: f.doorURL["NEWSORG"],
		f.doorDom["MOONKIS"]: f.doorURL["MOONKIS"],
	}
	detected := map[string]bool{}
	for day := simclock.Day(0); day < 40; day++ {
		for dom, u := range targets {
			if checkAll(c, map[string]string{dom: u}, day)[dom].Cloaked {
				detected[dom] = true
			}
		}
	}
	for dom := range targets {
		if !detected[dom] {
			t.Fatalf("doorway %s never detected under 40%% faults in 40 days", dom)
		}
	}
}

func TestDoubleNotFoundIsDeterminate(t *testing.T) {
	f := build(t)
	det := NewDetector(f.web)
	v := det.CheckURL("http://no-such-host.example/", 0)
	if v.Cloaked || v.Unknown {
		t.Fatalf("dead URL must be determinately clean: %+v", v)
	}
	// And therefore cacheable: the crawler should not refetch it.
	c := New(det)
	checkAll(c, map[string]string{"no-such-host.example": "http://no-such-host.example/"}, 0)
	n := c.fetches.Load()
	checkAll(c, map[string]string{"no-such-host.example": "http://no-such-host.example/"}, 10)
	if c.fetches.Load() != n {
		t.Fatal("dead domain refetched")
	}
}

func TestRedirectVerdictSurvivesDeadLanding(t *testing.T) {
	// A doorway that 302s to a seized/removed store is still cloaking, even
	// though the landing fetch fails.
	f := build(t)
	dep := f.doorDom["KEY"]
	// Re-point the KEY doorway at a dead host by re-registering its site
	// with a resolver that targets a host nobody serves.
	site, _ := f.web.Lookup(dep)
	door := site.(*simweb.DoorwaySite)
	f.web.Register(dep, &simweb.DoorwaySite{
		Doorway: door.Doorway,
		Gen:     f.gen,
		Terms:   door.Terms,
		Resolve: func(simclock.Day) string { return "http://dead-store.example/" },
	})
	det := NewDetector(f.web)
	v := det.CheckURL(f.doorURL["KEY"], 0)
	if !v.Cloaked || v.Detector != "dagger-redirect" {
		t.Fatalf("verdict = %+v", v)
	}
	if v.IsStore {
		t.Fatal("dead landing must not be a store")
	}
}
