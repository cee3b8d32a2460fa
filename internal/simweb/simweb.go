// Package simweb implements the synthetic web the study crawls: doorway
// pages on compromised sites (with redirect-, user-agent- and
// iframe-cloaking), counterfeit storefronts with order endpoints and
// analytics pages, benign results, and seizure notice pages. The web is
// reachable two ways: an in-process Fetcher for the large-scale daily
// crawls, and a net/http handler so the identical content can be served and
// crawled over a real network socket.
package simweb

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/simclock"
)

// User-agent strings that select the visitor class, after the paper's
// observation that cloaking kits key on the self-identified crawler UA.
const (
	CrawlerUA = "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
	BrowserUA = "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 Chrome/33.0 Safari/537.36"
)

// SearchReferrer is the referrer a click-through from a Google SERP carries.
const SearchReferrer = "http://www.google.com/search"

// Request is one fetch of a URL by some visitor class on a simulation day.
type Request struct {
	URL       string
	UserAgent string
	Referrer  string
	Day       simclock.Day
	// Attempt numbers retries of the same logical fetch (0 = first try).
	// Retry layers increment it so deterministic fault injection re-rolls
	// each attempt independently.
	Attempt int
}

// Response is the served result. A redirect is expressed via Status 302 and
// Location; bodies carry Set-Cookie values out of band for simplicity.
type Response struct {
	Status   int
	Body     string
	Location string   // redirect target for 3xx
	Cookies  []string // Set-Cookie payloads
	// Err is the fetch's error channel: transport-level failures (timeouts,
	// DNS failures, truncated transfers) that produced no usable document.
	// A response with Err set must be treated as failed regardless of
	// Status.
	Err error
	// Truncated marks a body that arrived incomplete (detected the way real
	// crawlers do, via Content-Length mismatch or connection reset). A
	// truncated document must not be semantically diffed.
	Truncated bool
}

// Failed reports whether the fetch produced no usable document: a transport
// error, a truncated body, no HTTP exchange at all (Status 0), or a server
// error. Client errors (4xx) are usable answers — a 404 is a determinate
// "nothing here", not a failure.
func (r Response) Failed() bool {
	return r.Err != nil || r.Truncated || r.Status == 0 || r.Status >= 500
}

// Site serves requests for one domain.
type Site interface {
	Serve(req Request) Response
}

// Web is the domain registry. The zero value is not usable; use NewWeb.
type Web struct {
	mu       sync.RWMutex
	sites    map[string]Site
	fallback func(domain string) Site
}

// NewWeb returns an empty web.
func NewWeb() *Web {
	return &Web{sites: make(map[string]Site)}
}

// SetFallback installs a factory consulted for domains with no explicit
// registration. The returned site is cached. This lets the long tail of
// benign result domains be materialised lazily instead of up front.
func (w *Web) SetFallback(f func(domain string) Site) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fallback = f
}

// Register routes a domain to a site, replacing any previous registration
// (which is exactly what a domain seizure does).
func (w *Web) Register(domain string, s Site) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sites[domain] = s
}

// Lookup returns the site currently serving a domain, consulting the
// fallback factory for unregistered domains.
func (w *Web) Lookup(domain string) (Site, bool) {
	w.mu.RLock()
	s, ok := w.sites[domain]
	fb := w.fallback
	w.mu.RUnlock()
	if ok {
		return s, true
	}
	if fb == nil {
		return nil, false
	}
	site := fb(domain)
	if site == nil {
		return nil, false
	}
	w.mu.Lock()
	// Another goroutine may have won the race; keep the first registration.
	if cur, dup := w.sites[domain]; dup {
		w.mu.Unlock()
		return cur, true
	}
	w.sites[domain] = site
	w.mu.Unlock()
	return site, true
}

// Domains returns the number of registered domains.
func (w *Web) Domains() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.sites)
}

// DomainNames returns the registered domain names in sorted order, so
// external drivers can enumerate the web deterministically. Lazily
// materialised fallback domains appear only once fetched.
func (w *Web) DomainNames() []string {
	w.mu.RLock()
	names := make([]string, 0, len(w.sites))
	for d := range w.sites {
		names = append(names, d)
	}
	w.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Fetch resolves and serves a request in process. Unknown hosts return 404;
// malformed URLs return 400.
func (w *Web) Fetch(req Request) Response {
	host, _, ok := SplitURL(req.URL)
	if !ok {
		u, err := url.Parse(req.URL)
		if err != nil || u.Host == "" {
			return Response{Status: 400, Body: "bad request"}
		}
		host = u.Hostname()
	} else if host == "" {
		return Response{Status: 400, Body: "bad request"}
	}
	site, ok := w.Lookup(host)
	if !ok {
		return Response{Status: 404, Body: "no such host"}
	}
	return site.Serve(req)
}

// FetchFollow fetches and follows up to maxHops HTTP redirects, preserving
// the original referrer (as browsers do on cross-site redirects). It
// returns the final response and the final URL.
func (w *Web) FetchFollow(req Request, maxHops int) (Response, string) {
	cur := req
	for hop := 0; ; hop++ {
		resp := w.Fetch(cur)
		if resp.Status < 300 || resp.Status >= 400 || resp.Location == "" || hop >= maxHops {
			return resp, cur.URL
		}
		cur = Request{
			URL:       ResolveURL(cur.URL, resp.Location),
			UserAgent: cur.UserAgent,
			Referrer:  cur.Referrer,
			Day:       cur.Day,
			Attempt:   cur.Attempt,
		}
	}
}

// SplitURL splits the URLs the simulator writes into host and path without
// allocating. It accepts only "http://" or "https://" followed by an
// authority of [A-Za-z0-9.-] bytes, ending at the first '/', '?' or '#',
// and a rest holding no '%' and no control byte; path is that rest up to
// its first '?' or '#'. On that shape net/url.Parse succeeds with the same
// Hostname and Path, and with an empty Host exactly when host is empty
// (FuzzSplitURL checks it). For any other URL ok is false, and the caller
// must fall back to net/url.Parse.
func SplitURL(raw string) (host, path string, ok bool) {
	rest, found := strings.CutPrefix(raw, "http://")
	if !found {
		if rest, found = strings.CutPrefix(raw, "https://"); !found {
			return "", "", false
		}
	}
	i := 0
	for ; i < len(rest); i++ {
		c := rest[i]
		if c == '/' || c == '?' || c == '#' {
			break
		}
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			return "", "", false
		}
	}
	host, rest = rest[:i], rest[i:]
	for j := 0; j < len(rest); j++ {
		if c := rest[j]; c == '%' || c < ' ' || c == 0x7f {
			return "", "", false
		}
	}
	path = rest
	if j := strings.IndexAny(rest, "?#"); j >= 0 {
		path = rest[:j]
	}
	return host, path, true
}

// ResolveURL resolves a possibly relative location against a base URL.
func ResolveURL(base, loc string) string {
	b, err := url.Parse(base)
	if err != nil {
		return loc
	}
	l, err := url.Parse(loc)
	if err != nil {
		return loc
	}
	return b.ResolveReference(l).String()
}

// DayHeader carries the simulation day over real HTTP.
const DayHeader = "X-Sim-Day"

// AttemptHeader carries the retry attempt number over real HTTP, so
// server-side fault injection re-rolls per attempt exactly like the
// in-process path.
const AttemptHeader = "X-Sim-Attempt"

// ServeHTTP exposes the web over a real socket: the Host header selects the
// site, the standard User-Agent/Referer headers select the visitor class,
// and DayHeader (default 0) selects the simulation day.
func (w *Web) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	day := 0
	if v := r.Header.Get(DayHeader); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			day = n
		}
	}
	host := r.Host
	if h, _, ok := strings.Cut(host, ":"); ok {
		host = h
	}
	// Allow the domain to ride in a query parameter when the client cannot
	// set Host (e.g. plain http://127.0.0.1:port/?simhost=door.com&u=/path).
	if sh := r.URL.Query().Get("simhost"); sh != "" {
		host = sh
	}
	path := r.URL.Path
	if up := r.URL.Query().Get("u"); up != "" {
		path = up
	}
	resp := w.Fetch(Request{
		URL:       "http://" + host + path,
		UserAgent: r.Header.Get("User-Agent"),
		Referrer:  r.Header.Get("Referer"),
		Day:       simclock.Day(day),
	})
	for _, c := range resp.Cookies {
		rw.Header().Add("Set-Cookie", c)
	}
	if resp.Status >= 300 && resp.Status < 400 && resp.Location != "" {
		rw.Header().Set("Location", resp.Location)
	}
	rw.Header().Set("Content-Type", "text/html; charset=utf-8")
	rw.WriteHeader(resp.Status)
	fmt.Fprint(rw, resp.Body)
}

// Fetcher is the read side of the web, implemented by *Web in process and
// by an HTTP client adapter for socket-based crawling.
type Fetcher interface {
	Fetch(req Request) Response
	FetchFollow(req Request, maxHops int) (Response, string)
}

var _ Fetcher = (*Web)(nil)
