package crawler

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/htmlgen"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/simweb"
	"repro/internal/store"
)

type fixture struct {
	web *simweb.Web
	gen *htmlgen.Generator
	det *Detector
	// mounted stores/doorways by campaign name
	storeDom map[string]string
	doorURL  map[string]string
	doorDom  map[string]string
}

func build(t *testing.T) *fixture {
	t.Helper()
	r := rng.New(21)
	specs := campaign.Roster(simclock.StudyWindow())
	deps := campaign.DeployAll(r.Sub("deploy"), specs, 0.01)
	gen := htmlgen.New(r)
	f := &fixture{
		web: simweb.NewWeb(), gen: gen,
		storeDom: map[string]string{}, doorURL: map[string]string{}, doorDom: map[string]string{},
	}
	mount := func(name string, js bool) {
		var dep *campaign.Deployment
		for _, d := range deps {
			if d.Spec.Name == name {
				dep = d
			}
		}
		if dep == nil {
			t.Fatalf("no deployment %s", name)
		}
		st := store.New(dep.Stores[0], r.Sub("store"), 245)
		sd := dep.Stores[0].Domains[0]
		f.web.Register(sd, &simweb.StoreSite{Store: st, Gen: gen, Window: simclock.StudyWindow()})
		f.storeDom[name] = sd
		dw := dep.Doorways[0]
		f.web.Register(dw.Domain, &simweb.DoorwaySite{
			Doorway: dw, Gen: gen,
			Terms:      []string{"cheap goods", "outlet online"},
			Resolve:    func(simclock.Day) string { return "http://" + sd + "/" },
			JSRedirect: js,
		})
		f.doorDom[name] = dw.Domain
		f.doorURL[name] = "http://" + dw.Domain + htmlgen.DoorwayPath(dep.Spec.Signature, "cheap goods")
	}
	mount("KEY", false)        // redirect cloaking, HTTP 302
	mount("NEWSORG", true)     // redirect cloaking, JS variant
	mount("MOONKIS", false)    // iframe cloaking
	mount("NORTHFACEC", false) // user-agent cloaking
	f.web.Register("benign-reviews.org", &simweb.BenignSite{
		Domain: "benign-reviews.org", Term: "cheap goods", Gen: gen})
	f.det = NewDetector(f.web)
	return f
}

// TestHostOfAllocFree is the alloc gate for the detector's host split: it
// runs two or three times per checked URL, so on the URLs the simulator
// writes it must not allocate.
func TestHostOfAllocFree(t *testing.T) {
	f := build(t)
	for name, u := range f.doorURL {
		var got string
		if allocs := testing.AllocsPerRun(500, func() { got = hostOf(u) }); allocs != 0 {
			t.Errorf("hostOf(%q) allocates %v/op, want 0", u, allocs)
		}
		if got != f.doorDom[name] {
			t.Errorf("hostOf(%q) = %q, want %q", u, got, f.doorDom[name])
		}
	}
}

func TestDaggerDetectsHTTPRedirectCloaking(t *testing.T) {
	f := build(t)
	v := f.det.CheckURL(f.doorURL["KEY"], 0)
	if !v.Cloaked || v.Detector != "dagger-redirect" {
		t.Fatalf("verdict = %+v", v)
	}
	if !v.IsStore || v.StoreDomain != f.storeDom["KEY"] {
		t.Fatalf("landing = %+v", v)
	}
}

func TestDaggerDetectsJSRedirectCloaking(t *testing.T) {
	f := build(t)
	v := f.det.CheckURL(f.doorURL["NEWSORG"], 0)
	if !v.Cloaked {
		t.Fatalf("JS redirect missed: %+v", v)
	}
	if v.Detector != "dagger-js" {
		t.Fatalf("detector = %q", v.Detector)
	}
	if v.StoreDomain != f.storeDom["NEWSORG"] || !v.IsStore {
		t.Fatalf("landing = %+v", v)
	}
}

func TestDaggerDetectsUserAgentCloaking(t *testing.T) {
	f := build(t)
	v := f.det.CheckURL(f.doorURL["NORTHFACEC"], 0)
	if !v.Cloaked || v.Detector != "dagger-redirect" {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestVanGoghCatchesIframeCloakingDaggerMisses(t *testing.T) {
	f := build(t)
	// With VanGogh: caught.
	v := f.det.CheckURL(f.doorURL["MOONKIS"], 0)
	if !v.Cloaked || v.Detector != "vangogh" {
		t.Fatalf("verdict = %+v", v)
	}
	if v.StoreDomain != f.storeDom["MOONKIS"] || !v.IsStore {
		t.Fatalf("landing = %+v", v)
	}
	// Without VanGogh (the ablation): missed — this is the paper's point
	// about detection requiring full rendering.
	blind := &Detector{F: f.web, Opts: DefaultOptions()}
	blind.Opts.EnableVanGogh = false
	bv := blind.CheckURL(f.doorURL["MOONKIS"], 0)
	if bv.Cloaked {
		t.Fatalf("diff-only detector should miss iframe cloaking: %+v", bv)
	}
}

func TestBenignSiteClean(t *testing.T) {
	f := build(t)
	v := f.det.CheckURL("http://benign-reviews.org/", 0)
	if v.Cloaked {
		t.Fatalf("benign flagged: %+v", v)
	}
}

func TestStoreItselfClean(t *testing.T) {
	// Legitimate (non-cloaking) resellers and the storefronts themselves
	// serve everyone the same document: no cloaking verdict.
	f := build(t)
	v := f.det.CheckURL("http://"+f.storeDom["KEY"]+"/", 0)
	if v.Cloaked {
		t.Fatalf("store flagged as cloaked: %+v", v)
	}
}

func TestDeadURLClean(t *testing.T) {
	f := build(t)
	v := f.det.CheckURL("http://gone.example.com/", 0)
	if v.Cloaked {
		t.Fatal("404 must be clean")
	}
}

func TestLooksLikeStore(t *testing.T) {
	cases := []struct {
		body    string
		cookies []string
		want    bool
	}{
		{"<a href='/cart'>Cart</a>", nil, true},
		{"<a href='/checkout'>Buy</a>", nil, true},
		{"plain page", []string{"zenid=abc; path=/"}, true},
		{"plain page", []string{"frontend=x"}, true},
		{"plain page", []string{"realypay_session=x"}, true},
		{"plain page", []string{"CNZZDATA12345=1"}, true},
		{"plain page", []string{"unrelated=1"}, false},
		{"an article about gardens", nil, false},
	}
	for i, c := range cases {
		if got := LooksLikeStore(c.body, c.cookies); got != c.want {
			t.Errorf("case %d: got %v", i, got)
		}
	}
}

func TestRenderStaticIframe(t *testing.T) {
	rr := Render(`<html><body><iframe src="http://x/" width="100%" height="100%"></iframe></body></html>`, "http://d/", "")
	if len(rr.Iframes) != 1 || !rr.Iframes[0].fullPage() {
		t.Fatalf("iframes = %+v", rr.Iframes)
	}
}

// TestRenderStyleSizedIframe covers the absent-vs-empty attribute
// distinction: an iframe with no width/height attributes takes its
// dimensions from the inline style and is full-page, while explicit empty
// attributes are the author's (degenerate) values and suppress the style
// fallback.
func TestRenderStyleSizedIframe(t *testing.T) {
	rr := Render(`<html><body><iframe src="http://x/" style="border:0;width:100%;height:100%"></iframe></body></html>`, "http://d/", "")
	if len(rr.Iframes) != 1 {
		t.Fatalf("iframes = %+v", rr.Iframes)
	}
	if f := rr.Iframes[0]; !f.fullPage() {
		t.Fatalf("style-sized iframe not full-page: %+v", f)
	}

	rr = Render(`<html><body><iframe src="http://x/" width="" height="" style="width:100%;height:100%"></iframe></body></html>`, "http://d/", "")
	if len(rr.Iframes) != 1 {
		t.Fatalf("iframes = %+v", rr.Iframes)
	}
	if f := rr.Iframes[0]; f.fullPage() {
		t.Fatalf("explicit empty attributes must not fall back to style: %+v", f)
	}
}

func TestStyleDim(t *testing.T) {
	cases := []struct {
		style, prop, want string
	}{
		{"width:100%;height:100%", "width", "100%"},
		{"border:0; width : 900px ;height:100%", "width", "900px"},
		{"max-width:100%", "width", ""},
		{"HEIGHT:100%", "height", "100%"},
		{"", "width", ""},
	}
	for i, c := range cases {
		if got := styleDim(c.style, c.prop); got != c.want {
			t.Errorf("case %d styleDim(%q, %q) = %q, want %q", i, c.style, c.prop, got, c.want)
		}
	}
}

func TestFullPageRule(t *testing.T) {
	cases := []struct {
		w, h string
		want bool
	}{
		{"100%", "100%", true},
		{"900", "850", true},
		{"801px", "900px", true},
		{"100%", "400", false},
		{"300", "100%", false},
		{"", "", false},
		{"800", "900", false}, // strictly greater than 800
	}
	for i, c := range cases {
		f := Iframe{Width: c.w, Height: c.h}
		if got := f.fullPage(); got != c.want {
			t.Errorf("case %d (%q,%q): got %v", i, c.w, c.h, got)
		}
	}
}

func TestRenderScriptErrorsNonFatal(t *testing.T) {
	rr := Render(`<html><body><script>this is not javascript at all</script><iframe src="http://x/" width="100%" height="100%"></iframe></body></html>`, "http://d/", "")
	if len(rr.Errors) == 0 {
		t.Fatal("expected a script error")
	}
	if len(rr.Iframes) != 1 {
		t.Fatal("static iframes must survive script errors")
	}
}

func TestCrawlerCacheSkipsCleanDomains(t *testing.T) {
	f := build(t)
	c := New(f.det)
	checkAll(c, map[string]string{"benign-reviews.org": "http://benign-reviews.org/"}, 0)
	n := c.fetches.Load()
	for d := simclock.Day(1); d < 30; d++ {
		checkAll(c, map[string]string{"benign-reviews.org": "http://benign-reviews.org/"}, d)
	}
	if c.fetches.Load() != n {
		t.Fatalf("clean domain re-fetched: %d -> %d", n, c.fetches.Load())
	}
}

func TestCrawlerRechecksPoisonedDomains(t *testing.T) {
	f := build(t)
	c := New(f.det)
	c.RecheckDays = 4
	dom := f.doorDom["KEY"]
	checkAll(c, map[string]string{dom: f.doorURL["KEY"]}, 0)
	n := c.fetches.Load()
	checkAll(c, map[string]string{dom: f.doorURL["KEY"]}, 2) // within recheck window
	if c.fetches.Load() != n {
		t.Fatal("poisoned domain re-fetched too early")
	}
	checkAll(c, map[string]string{dom: f.doorURL["KEY"]}, 5) // past recheck window
	if c.fetches.Load() != n+1 {
		t.Fatal("poisoned domain not re-verified after RecheckDays")
	}
}

func TestCrawlerKeepsCloakedVerdictWhenCampaignGoesDark(t *testing.T) {
	f := build(t)
	// A resolver that goes dark after day 10.
	var dep *campaign.Deployment
	specs := campaign.Roster(simclock.StudyWindow())
	deps := campaign.DeployAll(rng.New(3), specs, 0.01)
	for _, d := range deps {
		if d.Spec.Name == "JSUS" {
			dep = d
		}
	}
	st := store.New(dep.Stores[0], rng.New(5), 245)
	sd := dep.Stores[0].Domains[0]
	f.web.Register(sd, &simweb.StoreSite{Store: st, Gen: f.gen, Window: simclock.StudyWindow()})
	dw := dep.Doorways[0]
	f.web.Register(dw.Domain, &simweb.DoorwaySite{
		Doorway: dw, Gen: f.gen, Terms: []string{"cheap goods"},
		Resolve: func(d simclock.Day) string {
			if d > 10 {
				return ""
			}
			return "http://" + sd + "/"
		},
	})
	c := New(f.det)
	c.RecheckDays = 1
	u := "http://" + dw.Domain + "/"
	v0 := checkAll(c, map[string]string{dw.Domain: u}, 0)[dw.Domain]
	if !v0.Cloaked {
		t.Fatalf("initial check must flag: %+v", v0)
	}
	v20 := checkAll(c, map[string]string{dw.Domain: u}, 20)[dw.Domain]
	if !v20.Cloaked {
		t.Fatal("verdict must not flip to clean when the campaign goes dark")
	}
}

// checkAll runs one CheckDomains job per domain, in domain order, and
// returns the verdicts by domain.
func checkAll(c *Crawler, urls map[string]string, day simclock.Day) map[string]Verdict {
	doms := make([]string, 0, len(urls))
	for dom := range urls {
		doms = append(doms, dom)
	}
	slices.Sort(doms)
	out := make([]Verdict, len(doms))
	jobs := make([]DomainJob, len(doms))
	for i, dom := range doms {
		jobs[i] = DomainJob{ID: c.Domains.Intern(dom), Domain: dom, Checks: []DomainCheck{{URL: urls[dom], Out: &out[i]}}}
	}
	c.CheckDomains(jobs, day)
	verdicts := make(map[string]Verdict, len(doms))
	for i, dom := range doms {
		verdicts[dom] = out[i]
	}
	return verdicts
}

func TestCheckDomainsParallelMatchesSerial(t *testing.T) {
	f := build(t)
	urls := map[string]string{
		f.doorDom["KEY"]:     f.doorURL["KEY"],
		f.doorDom["NEWSORG"]: f.doorURL["NEWSORG"],
		f.doorDom["MOONKIS"]: f.doorURL["MOONKIS"],
		"benign-reviews.org": "http://benign-reviews.org/",
	}
	par := New(f.det)
	par.Workers = 4
	got := checkAll(par, urls, 0)
	ser := New(f.det)
	ser.Workers = 1
	want := checkAll(ser, urls, 0)
	for dom := range urls {
		if got[dom].Cloaked != want[dom].Cloaked || got[dom].Detector != want[dom].Detector {
			t.Fatalf("%s: parallel %+v vs serial %+v", dom, got[dom], want[dom])
		}
	}
}

func TestVerdictString(t *testing.T) {
	if (Verdict{}).String() != "clean" {
		t.Fatal("clean verdict string")
	}
	v := Verdict{Cloaked: true, Detector: "vangogh", StoreDomain: "s.com", IsStore: true}
	if v.String() == "" {
		t.Fatal("empty string")
	}
}

func BenchmarkCheckURLRedirect(b *testing.B) {
	f := build(&testing.T{})
	for i := 0; i < b.N; i++ {
		f.det.CheckURL(f.doorURL["KEY"], 0)
	}
}

func BenchmarkCheckURLIframe(b *testing.B) {
	f := build(&testing.T{})
	for i := 0; i < b.N; i++ {
		f.det.CheckURL(f.doorURL["MOONKIS"], 0)
	}
}

// TestExportCacheFollowsChanges: each ExportCache equals the full sort of
// the cache while domains are added and re-verified (a new verdict), also
// more than once between exports, and after an unsorted and a sorted
// restore. No export writes into an earlier export's entries.
func TestExportCacheFollowsChanges(t *testing.T) {
	f := build(t)
	c := New(f.det)
	c.RecheckDays = 1
	check := func(dom string, d simclock.Day) {
		u := "http://" + dom + "/"
		for name, dd := range f.doorDom {
			if dd == dom {
				u = f.doorURL[name]
			}
		}
		checkAll(c, map[string]string{dom: u}, d)
	}
	var kept []CrawlerState
	var copies [][]CachedVerdict
	export := func(c *Crawler, when string) {
		t.Helper()
		got, want := c.ExportCache(), referenceExportCache(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ExportCache\n%+v\nthe full sort\n%+v", when, got.Entries, want.Entries)
		}
		kept = append(kept, got)
		copies = append(copies, slices.Clone(got.Entries))
	}
	key, moon, news := f.doorDom["KEY"], f.doorDom["MOONKIS"], f.doorDom["NEWSORG"]
	export(c, "empty")
	check("benign-reviews.org", 0)
	check(key, 0)
	export(c, "day 0")
	check(moon, 1)
	check(news, 1)
	export(c, "day 1")
	check(key, 2) // re-verified: a new CheckedDay
	check(moon, 3)
	check(moon, 4) // re-verified twice since the last export
	check("benign-reviews.org", 4)
	export(c, "day 4")

	// A snapshot out of order (made by hand; ExportCache writes it sorted)
	// restores too, and the exports after it are still the full sort.
	rev := slices.Clone(kept[len(kept)-1].Entries)
	slices.Reverse(rev)
	unsorted := New(f.det)
	unsorted.RestoreCache(CrawlerState{Entries: rev})
	checkAll(unsorted, map[string]string{news: f.doorURL["NEWSORG"]}, 5)
	export(unsorted, "after an unsorted restore")

	restored := New(f.det)
	restored.RestoreCache(kept[len(kept)-1])
	export(restored, "after restore")
	c = restored
	check(moon, 5)
	check(news, 5)
	export(c, "restored day 5")
	for i := range kept {
		if !reflect.DeepEqual(kept[i].Entries, copies[i]) {
			t.Fatalf("export %d changed after it was taken", i)
		}
	}
}
