package htmlparse

import (
	"sort"
	"strings"
	"testing"
)

// referenceTriplets is the straightforward map-based extractor Triplets
// used before the allocation-trimming rewrite; the optimized version must
// match it feature-for-feature on every document.
func referenceTriplets(src string) []string {
	set := make(map[string]struct{})
	for _, tok := range tokens(src) {
		if tok.Type != StartTagToken && tok.Type != SelfClosingToken {
			continue
		}
		set["tag:"+tok.Data] = struct{}{}
		for _, a := range tok.Attrs {
			set["attr:"+tok.Data+"."+a.Name] = struct{}{}
			v := a.Value
			if len(v) > 48 {
				v = v[:48]
			}
			set["trip:"+tok.Data+"."+a.Name+"="+v] = struct{}{}
			if i := strings.LastIndexByte(v, '='); i >= 0 {
				set["pfx:"+tok.Data+"."+a.Name+"="+v[:i+1]] = struct{}{}
			}
			if h := urlHost(a.Value); h != "" {
				set["host:"+tok.Data+"."+a.Name+"="+h] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

var tripletDocs = []string{
	``,
	`plain text only`,
	`<div class="shop"><a href="/cart">Cart</a></div>`,
	`<a href="/php?p=cheap+uggs">x</a><script src="https://s4.cnzz.com/stat.php?id=99"></script>`,
	`<div a="1" b="2" a="1"><span c="3"></span><span c="3"></span></div>`,
	`<img src=/x.png><br/><input type="text" value="q=v=w">`,
	`<div data-blob="` + strings.Repeat("x", 500) + `">tail</div>`,
	`<!doctype html><!-- c --><html><body onload="go()"><p id=a class=b>t</p></body></html>`,
	`<script>var s = "<div fake='1'>";</script><div real="1"></div>`,
	`<a href="http://h.com/a/b#frag">l</a><a href="ftp://nope.com/">m</a>`,
}

// TestTripletsMatchesReference pins the buffer-reusing Triplets to the
// naive map-based extraction on a spread of documents, including duplicate
// features, raw-text scripts, malformed tags, and long values.
func TestTripletsMatchesReference(t *testing.T) {
	// A synthetic storefront-ish page exercises repeated tags at volume.
	var big strings.Builder
	big.WriteString(`<html><head><script src="https://cdn.kit.com/seo.js?v=`)
	big.WriteString(`7"></script></head><body>`)
	for i := 0; i < 200; i++ {
		big.WriteString(`<div class="item"><a href="/php?p=item">buy</a></div>`)
	}
	big.WriteString(`</body></html>`)
	docs := append(append([]string(nil), tripletDocs...), big.String())

	for di, doc := range docs {
		got := Triplets(doc)
		want := referenceTriplets(doc)
		if len(got) != len(want) {
			t.Fatalf("doc %d: %d features, reference has %d\ngot  %v\nwant %v",
				di, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("doc %d feature %d: got %q want %q", di, i, got[i], want[i])
			}
		}
	}
}

// TestTripletsAllocs is the alloc gate for classifier feature extraction:
// on a page of 120 identical product cards, only the returned slice and
// the first-seen feature strings may allocate, so the count stays flat
// however many cards repeat them. Not checked under -race, whose sync.Pool
// drops items.
func TestTripletsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinnable under -race")
	}
	doc := strings.Repeat(`<div class="product"><a href="/php?p=cheap">Buy</a>`+
		`<img src="http://img.example.com/p.png"></div>`, 120)
	Triplets(doc) // warm the scratch pool
	if allocs := testing.AllocsPerRun(100, func() { Triplets(doc) }); allocs > 12 {
		t.Errorf("Triplets allocates %v times per 120-card document, want <= 12", allocs)
	}
}

func benchDoc() string {
	var b strings.Builder
	b.WriteString(`<html><head><title>cheap deals</title>`)
	b.WriteString(`<script src="https://s4.cnzz.com/stat.php?id=99"></script></head><body>`)
	for i := 0; i < 120; i++ {
		b.WriteString(`<div class="product" data-sku="a=b"><a href="/php?p=cheap+uggs">`)
		b.WriteString(`<img src="http://img.example.com/p.png" alt="p"></a></div>`)
	}
	b.WriteString(`</body></html>`)
	return b.String()
}

// BenchmarkTripletsStorefront tracks the feature-extraction hot path on a
// storefront-shaped page (URL-heavy attributes, so the pfx:/host: branches
// run); the allocation count is what the buffer-reuse work targets.
func BenchmarkTripletsStorefront(b *testing.B) {
	doc := benchDoc()
	b.ReportAllocs()
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		Triplets(doc)
	}
}

// BenchmarkTripletsReference is the pre-rewrite map-based extractor, kept
// as the baseline the optimized numbers are read against.
func BenchmarkTripletsReference(b *testing.B) {
	doc := benchDoc()
	b.ReportAllocs()
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		referenceTriplets(doc)
	}
}

// BenchmarkEachToken measures the streaming tokenizer alone (no feature
// assembly), the floor for any extraction built on it.
func BenchmarkEachToken(b *testing.B) {
	doc := benchDoc()
	b.ReportAllocs()
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		n := 0
		EachToken(doc, func(tok Token) bool { n++; return true })
	}
}
