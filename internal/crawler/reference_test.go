package crawler

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/htmlgen"
	"repro/internal/htmlparse"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/simweb"
)

// referenceExportCache is ExportCache as it was before it kept its order
// across exports: sort each shard's domains, then sort the concatenation
// again, since shards partition by hash. ExportCache must equal it.
func referenceExportCache(c *Crawler) CrawlerState {
	st := CrawlerState{Fetches: c.fetches.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		doms := make([]string, 0, len(sh.cache))
		for dom := range sh.cache {
			doms = append(doms, dom)
		}
		sort.Strings(doms)
		for _, dom := range doms {
			st.Entries = append(st.Entries, CachedVerdict{Domain: dom, Verdict: sh.cache[dom]})
		}
		sh.mu.Unlock()
	}
	sort.Slice(st.Entries, func(i, j int) bool { return st.Entries[i].Domain < st.Entries[j].Domain })
	return st
}

// ReferenceExportCache exposes referenceExportCache to the external test
// that drives it from whole studies.
var ReferenceExportCache = referenceExportCache

// referenceCheckURL is CheckURL without its fast paths or memos: it
// tokenises both views even when they are the same document, and renders
// every page it looks at. CheckURL must return the same verdict.
func referenceCheckURL(d *Detector, rawurl string, day simclock.Day) Verdict {
	v := Verdict{CheckedDay: day}
	userReq := simweb.Request{
		URL:       rawurl,
		UserAgent: simweb.BrowserUA,
		Referrer:  simweb.SearchReferrer + "?q=click",
		Day:       day,
	}
	userResp, finalURL := d.F.FetchFollow(userReq, d.Opts.MaxRedirects)
	crawlerResp := d.F.Fetch(simweb.Request{
		URL: rawurl, UserAgent: simweb.CrawlerUA, Day: day,
	})
	switch {
	case hostOf(finalURL) != hostOf(rawurl):
		v.Cloaked = true
		v.Detector = "dagger-redirect"
		v.IsStore = userResp.Status < 400 && LooksLikeStore(userResp.Body, userResp.Cookies)
		v.StoreDomain = hostOf(finalURL)
		return v
	case userResp.Failed() || crawlerResp.Failed() ||
		userResp.Status >= 400 || crawlerResp.Status >= 400:
		v.Unknown = !(userResp.Status == 404 && crawlerResp.Status == 404)
		return v
	default:
		sim := htmlparse.Jaccard(htmlparse.TermSet(userResp.Body), htmlparse.TermSet(crawlerResp.Body))
		if sim < d.Opts.SimilarityThreshold {
			v.Cloaked = true
			v.Detector = "dagger-semantic"
			if d.Opts.RenderOnDagger {
				rr := Render(userResp.Body, rawurl, userReq.Referrer)
				if rr.Redirect != "" {
					v.Detector = "dagger-js"
					d.inspectLanding(&v, rr.Redirect, day)
					return v
				}
			}
			v.IsStore = LooksLikeStore(userResp.Body, userResp.Cookies)
			v.StoreDomain = hostOf(finalURL)
			return v
		}
	}
	if d.Opts.EnableVanGogh {
		rr := Render(userResp.Body, rawurl, userReq.Referrer)
		if rr.Redirect != "" {
			v.Cloaked = true
			v.Detector = "dagger-js"
			d.inspectLanding(&v, rr.Redirect, day)
			return v
		}
		for _, f := range rr.Iframes {
			if f.fullPage() && f.Src != "" {
				v.Cloaked = true
				v.Detector = "vangogh"
				d.inspectLanding(&v, f.Src, day)
				return v
			}
		}
	}
	return v
}

// fixtureURLs lists every URL the fixture serves: each cloaking doorway
// (302, JS-redirect, iframe and user-agent cloaking) at its doorway path
// and its root, each landing store, the benign site and a dead domain.
func (f *fixture) fixtureURLs() []string {
	urls := []string{"http://benign-reviews.org/", "http://gone.example.com/"}
	for name, u := range f.doorURL {
		urls = append(urls, u, "http://"+f.doorDom[name]+"/", "http://"+f.storeDom[name]+"/")
	}
	sort.Strings(urls)
	return urls
}

// TestCheckURLMatchesReference: the fast paths never change a verdict.
// Every fixture URL is checked every 7th day of the study window, under
// the study's options and with each render switch and the threshold
// varied, by one long-lived detector (so memo hits are covered) and by
// referenceCheckURL. The fixture must take both sides of each fast path,
// or the comparison would not cover it.
func TestCheckURLMatchesReference(t *testing.T) {
	f := build(t)
	urls := f.fixtureURLs()
	variants := map[string]func(*Options){
		"default":     func(*Options) {},
		"no-vangogh":  func(o *Options) { o.EnableVanGogh = false },
		"no-render":   func(o *Options) { o.RenderOnDagger = false },
		"threshold-1": func(o *Options) { o.SimilarityThreshold = 1 },
	}
	for name, vary := range variants {
		det := NewDetector(f.web)
		vary(&det.Opts)
		for day := simclock.Day(0); int(day) < simclock.StudyWindow().Days(); day += 7 {
			for _, u := range urls {
				got, want := det.CheckURL(u, day), referenceCheckURL(det, u, day)
				if got != want {
					t.Fatalf("%s, day %d, %s: CheckURL %+v, reference %+v", name, day, u, got, want)
				}
			}
		}
	}

	var same, differ, inertPages, activePages int
	for _, u := range urls {
		user, _ := f.web.FetchFollow(simweb.Request{
			URL: u, UserAgent: simweb.BrowserUA, Referrer: simweb.SearchReferrer + "?q=click",
		}, DefaultOptions().MaxRedirects)
		crawler := f.web.Fetch(simweb.Request{URL: u, UserAgent: simweb.CrawlerUA})
		if user.Status >= 400 {
			continue
		}
		if user.Body == crawler.Body {
			same++
		} else {
			differ++
		}
		if inert(user.Body) {
			inertPages++
		} else {
			activePages++
		}
	}
	if same == 0 || differ == 0 || inertPages == 0 || activePages == 0 {
		t.Fatalf("fixture misses a fast-path side: %d identical and %d differing views, %d inert and %d active pages",
			same, differ, inertPages, activePages)
	}
}

// TestIdenticalViewsFlaggedAboveThresholdOne: identical views have
// similarity exactly 1, so a threshold above 1 still flags them, as
// tokenising both views always did.
func TestIdenticalViewsFlaggedAboveThresholdOne(t *testing.T) {
	f := build(t)
	det := NewDetector(f.web)
	det.Opts.SimilarityThreshold = 1.5
	for _, u := range []string{"http://benign-reviews.org/", "http://" + f.storeDom["KEY"] + "/"} {
		v := det.CheckURL(u, 0)
		if !v.Cloaked || v.Detector != "dagger-semantic" {
			t.Fatalf("%s at threshold 1.5: %+v, want a dagger-semantic flag", u, v)
		}
		if want := referenceCheckURL(det, u, 0); v != want {
			t.Fatalf("%s at threshold 1.5: CheckURL %+v, reference %+v", u, v, want)
		}
	}
}

// inertCases are documents on either side of the inert rule, including
// the lexer's edge cases: tag case, self-closing tags, empty scripts,
// markup hidden in comments, style raw text or entities, and truncation.
var inertCases = []struct {
	name, body string
	inert      bool
}{
	{"plain", `<html><body><p>cheap goods</p></body></html>`, true},
	{"upper-case script", `<SCRIPT>window.location = "http://s.example/";</SCRIPT>`, false},
	{"self-closing script", `<p>x</p><script/>`, false},
	{"self-closing iframe", `<iframe src="http://s.example/" width="100%" height="100%"/>`, false},
	{"empty script with src", `<script src=x></script>`, false},
	{"static iframe", `<iframe src="http://s.example/"></iframe>`, false},
	{"script in a comment", `<!-- <script>window.location = "http://s.example/";</script> -->`, true},
	{"iframe in a comment", `<p>a</p><!-- <iframe src="http://s.example/" width="100%" height="100%"> -->`, true},
	{"script in style", `<style>p{}<script>window.location = "x";</script></style>`, true},
	{"truncated tag", `<p>cheap goods</p><scr`, true},
	{"unterminated script tag", `<p>a</p><script window.location = "x";`, true},
	{"escaped script", `&lt;script&gt;window.location = "x";&lt;/script&gt;`, true},
	{"scripts as text", `scripts and iframes <b>script</b> iframe`, true},
	{"end tag only", `<p>a</p></script></iframe>`, true},
	{"empty", ``, true},
}

// TestInertRendersNothing: an inert document renders to the zero
// RenderResult, which is what lets render skip the DOM and the memo.
func TestInertRendersNothing(t *testing.T) {
	for _, c := range inertCases {
		if got := inert(c.body); got != c.inert {
			t.Errorf("%s: inert = %v, want %v", c.name, got, c.inert)
		}
		if c.inert {
			if rr := Render(c.body, "http://d.example/", simweb.SearchReferrer); !reflect.DeepEqual(rr, RenderResult{}) {
				t.Errorf("%s: inert document rendered %+v", c.name, rr)
			}
		}
	}
}

// FuzzRenderInert checks the render fast path on any input: a document
// inert says has no script or iframe renders to the zero RenderResult.
// The corpus starts from the cloaking pages htmlgen serves and the table
// cases above.
func FuzzRenderInert(f *testing.F) {
	g := htmlgen.New(rng.New(9))
	base := g.BenignResultPage("reviews.example", "cheap goods")
	f.Add(base)
	for _, id := range []string{"d1", "d2", "d3", "d4"} {
		target := "http://" + id + ".store.example/"
		f.Add(g.CloakedDoorwayUserPage(base, id, target))
		f.Add(g.InjectRedirect(base, id, target))
		f.Add(g.RedirectScript(id, target))
		f.Add(g.IframeScript(id, target))
	}
	for _, c := range inertCases {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if !inert(body) {
			return
		}
		if rr := Render(body, "http://d.example/", simweb.SearchReferrer); !reflect.DeepEqual(rr, RenderResult{}) {
			t.Fatalf("inert document rendered %+v", rr)
		}
	})
}

// TestRenderMemoHitAllocatesNothing: a memo hit assembles its key in a
// pooled buffer, so looking up a stored render allocates nothing (not
// checked under -race, whose sync.Pool drops items) and returns what the
// miss stored.
func TestRenderMemoHitAllocatesNothing(t *testing.T) {
	g := htmlgen.New(rng.New(9))
	body := g.InjectRedirect(g.BenignResultPage("reviews.example", "cheap goods"), "d1", "http://d1.store.example/")
	if inert(body) {
		t.Fatal("fixture has no script, so render would not reach the memo")
	}
	d := NewDetector(nil)
	const pageURL = "http://d1.example/cheap-goods"
	want := d.render(body, pageURL, simweb.SearchReferrer)
	if reflect.DeepEqual(want, RenderResult{}) {
		t.Fatal("fixture renders nothing")
	}
	var got RenderResult
	allocs := testing.AllocsPerRun(100, func() { got = d.render(body, pageURL, simweb.SearchReferrer) })
	if allocs != 0 && !raceEnabled {
		t.Fatalf("a render memo hit allocated %.1f times", allocs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memo hit returned %+v, want %+v", got, want)
	}
	if n := d.renders.Len(); n != 1 {
		t.Fatalf("memo holds %d entries after one miss and hits, want 1", n)
	}
}
