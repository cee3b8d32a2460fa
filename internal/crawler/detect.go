// Package crawler implements the measurement crawlers of §4.1: Dagger,
// which detects cloaking by fetching each URL as a user and as a search
// engine crawler and comparing the responses semantically, and VanGogh,
// which renders pages (executing their JavaScript) to detect full-page
// iframe cloaking that serves identical documents to both visitor classes.
// It also implements the §4.1.3 storefront detector and a caching daily
// crawl scheduler.
package crawler

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/htmlparse"
	"repro/internal/jsmini"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/simweb"
)

// Options tunes detection.
type Options struct {
	// SimilarityThreshold is the Jaccard term-set similarity below which
	// Dagger considers the user and crawler views semantically different.
	SimilarityThreshold float64
	// EnableVanGogh turns on rendered iframe-cloaking detection. Disabling
	// it reproduces the pre-VanGogh blind spot (the abl-render ablation).
	EnableVanGogh bool
	// RenderOnDagger renders pages Dagger flags, to follow JavaScript
	// redirects to the landing store (the paper's HtmlUnit extension).
	RenderOnDagger bool
	// MaxRedirects bounds HTTP redirect chains.
	MaxRedirects int
}

// DefaultOptions returns the configuration used by the study.
func DefaultOptions() Options {
	return Options{
		SimilarityThreshold: 0.35,
		EnableVanGogh:       true,
		RenderOnDagger:      true,
		MaxRedirects:        5,
	}
}

// Verdict is the outcome of checking one URL or domain.
type Verdict struct {
	Cloaked     bool
	Detector    string // "dagger-redirect", "dagger-semantic", "dagger-js", "vangogh"
	IsStore     bool   // landing site looks like a counterfeit storefront
	StoreDomain string // domain of the landing storefront
	CheckedDay  simclock.Day
	// Unknown marks a check spoiled by fetch failures (timeouts, 5xx, DNS
	// failures, truncated bodies, an open circuit breaker): the URL is
	// neither confirmed clean nor cloaked. Unknown verdicts are never
	// cached, so the domain is re-queued the next time it surfaces — the
	// §4.1.2 re-crawl policy — instead of being mis-classified as clean.
	Unknown bool
}

// Iframe is an iframe observed after rendering.
type Iframe struct {
	Src    string
	Width  string
	Height string
}

// fullPage reports whether the iframe visually occupies the page under the
// paper's VanGogh rule: width and height both either 100% or above 800px.
func (f Iframe) fullPage() bool {
	big := func(s string) bool {
		s = strings.TrimSpace(s)
		if s == "100%" {
			return true
		}
		n, err := strconv.Atoi(strings.TrimSuffix(s, "px"))
		return err == nil && n > 800
	}
	return big(f.Width) && big(f.Height)
}

// RenderResult is what a headless render of a document observes.
type RenderResult struct {
	Redirect string   // JavaScript navigation, if any
	Iframes  []Iframe // static and script-created iframes
	Errors   []error  // non-fatal script errors
}

// Render parses a document, executes its scripts with the jsmini
// interpreter, and reports JS navigations and the iframes present after
// execution (both static markup and DOM-created, including those written
// via document.write).
func Render(body, pageURL, referrer string) RenderResult {
	var res RenderResult
	root := htmlparse.Parse(body)
	collectIframes(root, &res)
	pg := &jsmini.Page{URL: pageURL, Referrer: referrer}
	for _, script := range root.Scripts() {
		if err := jsmini.Exec(script, pg); err != nil {
			res.Errors = append(res.Errors, err)
		}
	}
	res.Redirect = pg.Redirect
	for _, e := range pg.AppendedElements() {
		if e.Tag != "iframe" {
			continue
		}
		// Same absent-vs-empty distinction as collectIframes: only an attribute
		// the script never set falls back to the style-set dimension.
		w, wok := e.Attrs["width"]
		if !wok {
			w = e.Attrs["style:width"]
		}
		h, hok := e.Attrs["height"]
		if !hok {
			h = e.Attrs["style:height"]
		}
		res.Iframes = append(res.Iframes, Iframe{Src: e.Attrs["src"], Width: w, Height: h})
	}
	for _, written := range pg.Writes {
		collectIframes(htmlparse.Parse(written), &res)
	}
	return res
}

func collectIframes(root *htmlparse.Node, res *RenderResult) {
	for _, n := range root.FindAll("iframe") {
		src, _ := n.Attr("src")
		// Absent and present-but-empty attributes are different signals: an
		// absent width falls back to the inline style (cloakers size
		// full-page iframes with style="width:100%;height:100%" as often as
		// with attributes), while width="" is an explicit author value and
		// gets no fallback.
		w, wok := n.Attr("width")
		h, hok := n.Attr("height")
		if !wok || !hok {
			style, _ := n.Attr("style")
			if !wok {
				w = styleDim(style, "width")
			}
			if !hok {
				h = styleDim(style, "height")
			}
		}
		res.Iframes = append(res.Iframes, Iframe{Src: src, Width: w, Height: h})
	}
}

// styleDim extracts one dimension declaration ("width" or "height") from
// an inline style attribute; nested declarations like max-width do not
// match. Returns "" when the property is not declared.
func styleDim(style, prop string) string {
	for _, decl := range strings.Split(style, ";") {
		name, val, ok := strings.Cut(decl, ":")
		if ok && strings.TrimSpace(strings.ToLower(name)) == prop {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// storeCookieMarkers are Set-Cookie name prefixes associated with the
// counterfeit e-commerce stack (§4.1.3: payment processing, e-commerce
// platforms, web analytics).
var storeCookieMarkers = []string{
	"zenid", "frontend", "realypay", "mallpayment", "globalbill",
	"CNZZDATA", "ajstat", "magento",
}

// LooksLikeStore applies the §4.1.3 storefront heuristics to a landing
// page: detection-relevant cookies, or "cart"/"checkout" substrings in the
// body.
//
// Matching is ASCII case folding, not strings.ToLower: the old full-body
// ToLower copy was one allocation per landing inspection for a needle set
// that is pure ASCII. The two differ only on exotic case mappings (Kelvin
// sign U+212A folding to 'k'), which no simulated document contains.
func LooksLikeStore(body string, cookies []string) bool {
	for _, c := range cookies {
		name, _, _ := strings.Cut(c, "=")
		name = strings.TrimSpace(name)
		for _, marker := range storeCookieMarkers {
			if hasPrefixFoldASCII(name, marker) {
				return true
			}
		}
	}
	return containsFoldASCII(body, "cart") || containsFoldASCII(body, "checkout")
}

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// hasPrefixFoldASCII reports whether s starts with prefix under ASCII case
// folding. prefix may be mixed case (cookie markers include CNZZDATA).
func hasPrefixFoldASCII(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if lowerASCII(s[i]) != lowerASCII(prefix[i]) {
			return false
		}
	}
	return true
}

// containsFoldASCII reports whether s contains lower under ASCII case
// folding; lower must already be lowercase ASCII. UTF-8 continuation bytes
// are all >= 0x80, so byte-wise scanning never matches inside a multi-byte
// rune.
func containsFoldASCII(s, lower string) bool {
	if len(lower) == 0 {
		return true
	}
	first := lower[0]
	for i := 0; i+len(lower) <= len(s); i++ {
		if lowerASCII(s[i]) != first {
			continue
		}
		j := 1
		for ; j < len(lower); j++ {
			if lowerASCII(s[i+j]) != lower[j] {
				break
			}
		}
		if j == len(lower) {
			return true
		}
	}
	return false
}

// Detector runs Dagger and VanGogh against a Fetcher. Term sets and render
// results are memoised per document in sharded maps — the crawler
// re-fetches stable pages daily from many observe workers at once and must
// neither re-tokenise them nor serialise on one memo mutex.
//
// Two exact fast paths keep most documents out of both memos. When the
// user and crawler views are the same document, their similarity is 1
// without a term set, so the term-set memo holds only the views of URLs
// whose two views differ (about 1,100 documents in a bench-preset study).
// When a document has no script or iframe tag, its render is the zero
// RenderResult without a DOM, so the render memo holds only documents
// that carry one (about 7,500). Neither memo evicts in practice: both stay
// far below cacheLimit over a whole study.
type Detector struct {
	F    simweb.Fetcher
	Opts Options

	termSets  shard.Map[map[string]struct{}]
	renders   shard.Map[RenderResult]
	termCount atomic.Int64
	rendCount atomic.Int64
}

// NewDetector returns a detector with the study's defaults.
func NewDetector(f simweb.Fetcher) *Detector {
	return &Detector{F: f, Opts: DefaultOptions()}
}

// cacheLimit bounds each memo table; beyond it the table is cleared and
// refills from the next lookups, so a pathological stream of distinct
// documents cannot grow the detector without bound.
const cacheLimit = 200000

func (d *Detector) termSet(body string) map[string]struct{} {
	if ts, ok := d.termSets.Get(body); ok {
		return ts
	}
	ts := htmlparse.TermSet(body)
	if d.termCount.Load() > cacheLimit {
		d.termSets.Clear()
		d.termCount.Store(0)
	}
	// Racing misses for the same body keep the first computed set; TermSet
	// is a pure function of body, so either copy is identical.
	actual, loaded := d.termSets.LoadOrStore(body, ts)
	if !loaded {
		d.termCount.Add(1)
	}
	return actual
}

// similarity is Dagger's Jaccard term-set similarity of the two views.
// Identical documents have equal term sets, whose Jaccard similarity is
// exactly 1 (an empty pair included), so they skip tokenisation.
func (d *Detector) similarity(userBody, crawlerBody string) float64 {
	if userBody == crawlerBody {
		return 1
	}
	return htmlparse.Jaccard(d.termSet(userBody), d.termSet(crawlerBody))
}

// inert reports whether body has no start or self-closing tag named script
// or iframe. Parse builds its tree from this same token stream, and Render
// acts only on script and iframe elements, so Render of an inert body is
// the zero RenderResult: no static iframe, no script to run, and so no
// navigation, document.write or created element either.
func inert(body string) bool {
	active := false
	htmlparse.EachToken(body, func(tok htmlparse.Token) bool {
		if (tok.Type == htmlparse.StartTagToken || tok.Type == htmlparse.SelfClosingToken) &&
			(tok.Data == "script" || tok.Data == "iframe") {
			active = true
			return false
		}
		return true
	})
	return !active
}

// renderKeys holds the scratch buffers render assembles memo keys in, so
// a memo hit copies the document into a reused buffer instead of a new
// string.
var renderKeys = sync.Pool{New: func() any { return new([]byte) }}

func (d *Detector) render(body, pageURL, referrer string) RenderResult {
	if inert(body) {
		return RenderResult{}
	}
	buf := renderKeys.Get().(*[]byte)
	*buf = append(append(append(append(append((*buf)[:0], pageURL...), 0), referrer...), 0), body...)
	rr, ok := d.renders.GetBytes(*buf)
	key := ""
	if !ok {
		key = string(*buf) // the key to store: allocated only on a miss
	}
	renderKeys.Put(buf)
	if ok {
		return rr
	}
	rr = Render(body, pageURL, referrer)
	if d.rendCount.Load() > cacheLimit {
		d.renders.Clear()
		d.rendCount.Store(0)
	}
	actual, loaded := d.renders.LoadOrStore(key, rr)
	if !loaded {
		d.rendCount.Add(1)
	}
	return actual
}

// CheckURL runs the full §4.1 pipeline on one search-result URL: Dagger's
// dual fetch, rendering as needed, VanGogh's iframe pass, and storefront
// detection on the landing site.
func (d *Detector) CheckURL(rawurl string, day simclock.Day) Verdict {
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
	sameHost := hostOf(finalURL) == hostOf(rawurl)
	switch {
	case !sameHost:
		// The user fetch left the doorway: redirect cloaking (the landing
		// status does not change the fact that the doorway redirected).
		v.Cloaked = true
		v.Detector = "dagger-redirect"
		v.IsStore = userResp.Status < 400 && LooksLikeStore(userResp.Body, userResp.Cookies)
		v.StoreDomain = hostOf(finalURL)
		return v
	case userResp.Failed() || crawlerResp.Failed() ||
		userResp.Status >= 400 || crawlerResp.Status >= 400:
		// A failed fetch on either side would make the semantic diff
		// meaningless — one transient 5xx, timeout or truncated body must
		// not manufacture a cloaking verdict. Only a double 404 confirms a
		// dead URL; anything else is unknown and re-queued rather than
		// cached as clean.
		v.Unknown = !(userResp.Status == 404 && crawlerResp.Status == 404)
		return v
	default:
		if d.similarity(userResp.Body, crawlerResp.Body) < d.Opts.SimilarityThreshold {
			// Semantically different views: cloaking, but the user was not
			// HTTP-redirected. Render to chase a JavaScript redirect.
			v.Cloaked = true
			v.Detector = "dagger-semantic"
			if d.Opts.RenderOnDagger {
				rr := d.render(userResp.Body, rawurl, userReq.Referrer)
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

	// Dagger saw nothing. VanGogh: render and look for a full-page iframe.
	if d.Opts.EnableVanGogh {
		rr := d.render(userResp.Body, rawurl, userReq.Referrer)
		if rr.Redirect != "" {
			// JS redirect cloaking that survived the semantic diff (e.g.
			// injected into an otherwise identical page).
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

// inspectLanding fetches the landing URL as a user and applies storefront
// detection.
func (d *Detector) inspectLanding(v *Verdict, landing string, day simclock.Day) {
	resp, finalURL := d.F.FetchFollow(simweb.Request{
		URL: landing, UserAgent: simweb.BrowserUA,
		Referrer: simweb.SearchReferrer, Day: day,
	}, d.Opts.MaxRedirects)
	v.IsStore = LooksLikeStore(resp.Body, resp.Cookies)
	v.StoreDomain = hostOf(finalURL)
}

func hostOf(raw string) string {
	if host, _, ok := simweb.SplitURL(raw); ok {
		return host
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	if !v.Cloaked {
		return "clean"
	}
	return fmt.Sprintf("cloaked(%s)->%s store=%v", v.Detector, v.StoreDomain, v.IsStore)
}
