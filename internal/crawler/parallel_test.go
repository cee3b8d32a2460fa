package crawler

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simweb"
)

// countingFetcher wraps a Fetcher and tracks the peak number of concurrent
// fetches, with a small sleep so overlapping workers actually overlap.
type countingFetcher struct {
	inner     simweb.Fetcher
	cur, peak atomic.Int64
}

func (c *countingFetcher) enter() {
	cur := c.cur.Add(1)
	for {
		p := c.peak.Load()
		if cur <= p || c.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

func (c *countingFetcher) Fetch(req simweb.Request) simweb.Response {
	c.enter()
	defer c.cur.Add(-1)
	time.Sleep(time.Millisecond)
	return c.inner.Fetch(req)
}

func (c *countingFetcher) FetchFollow(req simweb.Request, maxHops int) (simweb.Response, string) {
	c.enter()
	defer c.cur.Add(-1)
	time.Sleep(time.Millisecond)
	return c.inner.FetchFollow(req, maxHops)
}

// TestCheckDomainsClampsPool pins the satellite fix: a crawler configured
// with far more workers than jobs must never run more concurrent fetch
// chains than it has domains to check.
func TestCheckDomainsClampsPool(t *testing.T) {
	f := build(t)
	cf := &countingFetcher{inner: f.web}
	c := New(NewDetector(cf))
	c.Workers = 64

	urls := map[string]string{
		f.doorDom["KEY"]:     f.doorURL["KEY"],
		f.doorDom["NEWSORG"]: f.doorURL["NEWSORG"],
	}
	checkAll(c, urls, 0)
	if peak := cf.peak.Load(); peak > int64(len(urls)) {
		t.Fatalf("peak concurrent fetches = %d with only %d jobs", peak, len(urls))
	}
}

// recordingFetcher records the URL of every request it serves.
type recordingFetcher struct {
	inner simweb.Fetcher
	mu    sync.Mutex
	urls  []string
}

func (r *recordingFetcher) record(u string) {
	r.mu.Lock()
	r.urls = append(r.urls, u)
	r.mu.Unlock()
}

func (r *recordingFetcher) Fetch(req simweb.Request) simweb.Response {
	r.record(req.URL)
	return r.inner.Fetch(req)
}

func (r *recordingFetcher) FetchFollow(req simweb.Request, maxHops int) (simweb.Response, string) {
	r.record(req.URL)
	return r.inner.FetchFollow(req, maxHops)
}

// TestCheckDomainsRunsJobChecksInOrder: a job's checks run in order on one
// worker. The first check of a domain fetches its own URL and publishes
// the verdict; the later checks find it cached, run no detector and
// return the same verdict.
func TestCheckDomainsRunsJobChecksInOrder(t *testing.T) {
	f := build(t)
	rf := &recordingFetcher{inner: f.web}
	c := New(NewDetector(rf))
	c.Workers = 4
	dom, url := f.doorDom["KEY"], f.doorURL["KEY"]
	root := "http://" + dom + "/"

	out := make([]Verdict, 3)
	jobs := []DomainJob{
		{Domain: dom, Checks: []DomainCheck{{URL: url, Out: &out[0]}, {URL: root, Out: &out[1]}}},
		{Domain: "benign-reviews.org", Checks: []DomainCheck{{URL: "http://benign-reviews.org/", Out: &out[2]}}},
	}
	c.CheckDomains(jobs, 0)
	if got := c.Fetches(); got != 2 {
		t.Fatalf("detector ran %d times for two domains", got)
	}
	if !out[0].Cloaked || out[1] != out[0] {
		t.Fatalf("second check of %s returned %+v, first %+v", dom, out[1], out[0])
	}
	if out[2].Cloaked {
		t.Fatalf("benign domain flagged: %+v", out[2])
	}
	for _, u := range rf.urls {
		if u == root {
			t.Fatalf("the cached second check fetched its own URL %s", u)
		}
	}
}

// TestCheckDomainsFetchCountsMatchSerial runs the same batch on one worker
// and on many and requires identical verdicts and identical detector
// workloads.
func TestCheckDomainsFetchCountsMatchSerial(t *testing.T) {
	f := build(t)
	urls := map[string]string{
		f.doorDom["KEY"]:        f.doorURL["KEY"],
		f.doorDom["NEWSORG"]:    f.doorURL["NEWSORG"],
		f.doorDom["MOONKIS"]:    f.doorURL["MOONKIS"],
		f.doorDom["NORTHFACEC"]: f.doorURL["NORTHFACEC"],
		"benign-reviews.org":    "http://benign-reviews.org/",
	}

	serial := New(NewDetector(f.web))
	serial.Workers = 1
	sv := checkAll(serial, urls, 0)

	par := New(NewDetector(f.web))
	par.Workers = 8
	pv := checkAll(par, urls, 0)

	if len(sv) != len(pv) {
		t.Fatalf("verdict counts differ: %d vs %d", len(sv), len(pv))
	}
	for dom, v := range sv {
		p := pv[dom]
		if v.Cloaked != p.Cloaked || v.StoreDomain != p.StoreDomain || v.Detector != p.Detector {
			t.Fatalf("%s: serial %+v vs parallel %+v", dom, v, p)
		}
	}
	if serial.Fetches() != par.Fetches() {
		t.Fatalf("fetch counts differ: serial=%d parallel=%d", serial.Fetches(), par.Fetches())
	}
}
