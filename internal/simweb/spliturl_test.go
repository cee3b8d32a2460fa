package simweb

import (
	"net/url"
	"sync"
	"testing"
)

// splitURLSeeds are the shapes where a hand-written splitter most easily
// disagrees with net/url: userinfo, IP literals, ports, case, bad escapes,
// control bytes, fragment and query before the path, backslashes and
// non-http schemes.
var splitURLSeeds = []string{
	"http://door.example.com/",
	"http://door.example.com/?key=cheap-goods",
	"https://store-01.example.net/checkout",
	"http://door.example.com",
	"http:///path",
	"http://user:pw@door.example.com/",
	"http://@door.example.com/",
	"http://[::1]/",
	"http://[::1]:8080/x",
	"http://door.example.com:8080/x",
	"http://door.example.com:/x",
	"HTTP://Door.Example.COM/A",
	"http://Door.Example.COM/A",
	"http://door.example.com/%zz",
	"http://door.example.com/%41",
	"http://door%2ecom/",
	"http://door.example.com/\x00",
	"http://door.example.com\x00/",
	"http://door.example.com/a\x7fb",
	"http://door.example.com#frag/x",
	"http://door.example.com?#",
	"http://door.example.com/p?q#f",
	"http://door.example.com/p#f?q",
	"http://door.example.com\\evil.example/",
	"http://door.example.com/a\\b",
	"javascript:location='http://store.example/'",
	"//door.example.com/",
	"http:/door.example.com/",
	"",
}

func TestSplitURL(t *testing.T) {
	for _, tc := range []struct {
		raw, host, path string
		ok              bool
	}{
		{"http://door.example.com/?key=cheap-goods", "door.example.com", "/", true},
		{"https://store-01.example.net/checkout#top", "store-01.example.net", "/checkout", true},
		{"http://door.example.com", "door.example.com", "", true},
		{"http://door.example.com?#", "door.example.com", "", true},
		{"http:///path", "", "/path", true},
		{"http://door.example.com:8080/x", "", "", false},
		{"http://user@door.example.com/", "", "", false},
		{"HTTP://door.example.com/", "", "", false},
		{"http://door.example.com/%41", "", "", false},
		{"http://door.example.com/\x00", "", "", false},
		{"javascript:void(0)", "", "", false},
	} {
		host, path, ok := SplitURL(tc.raw)
		if host != tc.host || path != tc.path || ok != tc.ok {
			t.Errorf("SplitURL(%q) = %q, %q, %v; want %q, %q, %v",
				tc.raw, host, path, ok, tc.host, tc.path, tc.ok)
		}
	}
}

// FuzzSplitURL is the differential oracle for the fast path: whenever
// SplitURL accepts a URL, net/url.Parse must accept it too, with the same
// Hostname and Path, and with an empty Host exactly when the split host is
// empty (Web.Fetch answers 400 on both).
func FuzzSplitURL(f *testing.F) {
	for _, s := range splitURLSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		host, path, ok := SplitURL(raw)
		if !ok {
			return
		}
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("SplitURL(%q) accepted a URL net/url rejects: %v", raw, err)
		}
		if u.Hostname() != host || u.Path != path {
			t.Fatalf("SplitURL(%q) = %q, %q; net/url gives %q, %q", raw, host, path, u.Hostname(), u.Path)
		}
		if (u.Host == "") != (host == "") {
			t.Fatalf("SplitURL(%q) host %q, net/url Host %q", raw, host, u.Host)
		}
	})
}

// TestFetchSeizedDomainAllocFree is the alloc gate for the notice path:
// campaigns keep sending traffic to seized domains, so the crawler fetches
// notice pages every day, and once a case's notice has been rendered,
// fetching any of its domains must not allocate.
func TestFetchSeizedDomainAllocFree(t *testing.T) {
	f := buildFixture(t)
	_, dom := f.mountStore(t, "PHP?P=")
	f.web.Register(dom, &SeizureNoticeSite{
		Firm: "Greer, Burns & Crain", CaseID: "14-cv-00099",
		Domains: []string{dom, "seized-gbc-nike-0.com"}, Gen: f.gen,
	})
	req := Request{URL: "http://" + dom + "/", UserAgent: BrowserUA}
	first := f.web.Fetch(req)
	if allocs := testing.AllocsPerRun(500, func() { f.web.Fetch(req) }); allocs != 0 {
		t.Errorf("Fetch of a seized domain allocates %v/op after the first, want 0", allocs)
	}
	if again := f.web.Fetch(req); again.Body != first.Body {
		t.Error("notice body changed between fetches")
	}
}

// TestSeizureNoticeConcurrentFirstFetch: the crawl pool's workers fetch a
// case's domains at once, so the first fetches race to render the shared
// notice; every one must get the same body.
func TestSeizureNoticeConcurrentFirstFetch(t *testing.T) {
	f := buildFixture(t)
	domains := []string{"seized-a.example", "seized-b.example"}
	site := &SeizureNoticeSite{Firm: "Greer, Burns & Crain", CaseID: "14-cv-00099", Domains: domains, Gen: f.gen}
	for _, d := range domains {
		f.web.Register(d, site)
	}
	bodies := make([]string, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = f.web.Fetch(Request{URL: "http://" + domains[i%len(domains)] + "/", UserAgent: BrowserUA}).Body
		}()
	}
	wg.Wait()
	want := f.gen.SeizureNotice(site.Firm, site.CaseID, domains)
	for i, b := range bodies {
		if b != want {
			t.Fatalf("fetch %d got a different notice body", i)
		}
	}
}
