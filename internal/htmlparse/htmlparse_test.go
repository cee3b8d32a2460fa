package htmlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

// tokens collects EachToken's stream, copying each tag's attributes out of
// the reused buffer, so a test can index the whole token list.
func tokens(src string) []Token {
	var toks []Token
	EachToken(src, func(tok Token) bool {
		if len(tok.Attrs) > 0 {
			tok.Attrs = append([]Attr(nil), tok.Attrs...)
		}
		toks = append(toks, tok)
		return true
	})
	return toks
}

func TestTokenizeSimple(t *testing.T) {
	toks := tokens(`<html><body class="x">hi</body></html>`)
	want := []TokenType{StartTagToken, StartTagToken, TextToken, EndTagToken, EndTagToken}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	for i, w := range want {
		if toks[i].Type != w {
			t.Fatalf("token %d type = %v, want %v", i, toks[i].Type, w)
		}
	}
	if v, ok := toks[1].Attr("class"); !ok || v != "x" {
		t.Fatalf("body class = %q, %v", v, ok)
	}
}

func TestTokenizeAttrVariants(t *testing.T) {
	toks := tokens(`<input type=text disabled value='a b' DATA-X="1">`)
	if len(toks) != 1 {
		t.Fatalf("tokens: %+v", toks)
	}
	tok := toks[0]
	if v, _ := tok.Attr("type"); v != "text" {
		t.Errorf("unquoted attr = %q", v)
	}
	if _, ok := tok.Attr("disabled"); !ok {
		t.Error("bare attribute missing")
	}
	if v, _ := tok.Attr("value"); v != "a b" {
		t.Errorf("single-quoted attr = %q", v)
	}
	if v, ok := tok.Attr("data-x"); !ok || v != "1" {
		t.Errorf("attr names must be lowercased: %q %v", v, ok)
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	src := `<script>if (a < b) { x = "<div>"; }</script><p>after</p>`
	toks := tokens(src)
	// script start, script text, script end, p, text, /p
	if toks[0].Data != "script" || toks[1].Type != TextToken {
		t.Fatalf("tokens: %+v", toks)
	}
	if !strings.Contains(toks[1].Data, `a < b`) {
		t.Fatalf("script body mangled: %q", toks[1].Data)
	}
	var sawP bool
	for _, tok := range toks {
		if tok.Type == StartTagToken && tok.Data == "p" {
			sawP = true
		}
	}
	if !sawP {
		t.Fatal("content after script lost")
	}
}

// TestRawTextCloserOffsets: the raw-text end tag is found by byte offset
// in the document itself, whatever precedes it. Invalid UTF-8 inside a
// style element once shifted the offset found in a lowercased copy past
// the end of the input and panicked the lexer (a crawler fuzz find).
func TestRawTextCloserOffsets(t *testing.T) {
	for _, c := range []struct{ src, text string }{
		{"<stYle>\xf3\xf3\xf3\xf3</stYle", "\xf3\xf3\xf3\xf3"},
		{"<script>\xff\xfe x</SCRIPT><p>after</p>", "\xff\xfe x"},
		{"<script>\u023a\u023a</script>", "\u023a\u023a"},
		{"<style>a</st</styl</STYLE>", "a</st</styl"},
	} {
		toks := tokens(c.src)
		if len(toks) < 3 || toks[1].Type != TextToken || toks[1].Data != c.text || toks[2].Type != EndTagToken {
			t.Errorf("%q: tokens %+v, want raw text %q then the end tag", c.src, toks, c.text)
		}
	}
	for _, c := range []struct {
		s, sub string
		want   int
	}{
		{"ab</SCRIPT>", "</script", 2},
		{"</scrip", "</script", -1},
		{"<</sCrIpT", "</script", 1},
		{"", "</style", -1},
	} {
		if got := indexFold(c.s, c.sub); got != c.want {
			t.Errorf("indexFold(%q, %q) = %d, want %d", c.s, c.sub, got, c.want)
		}
	}
}

func TestTokenizeComment(t *testing.T) {
	toks := tokens(`a<!-- hidden <b> -->z`)
	if len(toks) != 3 || toks[1].Type != CommentToken {
		t.Fatalf("tokens: %+v", toks)
	}
	if !strings.Contains(toks[1].Data, "hidden <b>") {
		t.Fatalf("comment body = %q", toks[1].Data)
	}
}

func TestTokenizeDoctype(t *testing.T) {
	toks := tokens(`<!DOCTYPE html><html></html>`)
	if toks[0].Type != DoctypeToken {
		t.Fatalf("tokens: %+v", toks)
	}
}

func TestTokenizeMalformed(t *testing.T) {
	cases := []string{
		"<", "< notatag", "<>", "a < b and > c", "<div", "<div class=",
		"</", "<!--unterminated", "<div class='unterminated",
	}
	for _, src := range cases {
		toks := tokens(src) // must not panic
		_ = toks
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := tokens(`<br/><img src="x"/>`)
	if toks[0].Type != SelfClosingToken || toks[1].Type != SelfClosingToken {
		t.Fatalf("tokens: %+v", toks)
	}
}

func TestParseTree(t *testing.T) {
	root := Parse(`<html><body><div id="a"><p>one</p><p>two</p></div></body></html>`)
	ps := root.FindAll("p")
	if len(ps) != 2 {
		t.Fatalf("found %d <p>, want 2", len(ps))
	}
	div := root.Find("div")
	if div == nil {
		t.Fatal("no div")
	}
	if id, _ := div.Attr("id"); id != "a" {
		t.Fatalf("div id = %q", id)
	}
	if len(div.Children) != 2 {
		t.Fatalf("div has %d children", len(div.Children))
	}
}

func TestParseVoidElements(t *testing.T) {
	root := Parse(`<div><img src="a"><br><span>x</span></div>`)
	span := root.Find("span")
	if span == nil || span.Parent.Tag != "div" {
		t.Fatal("void elements must not capture following siblings as children")
	}
}

func TestParseUnclosedAndMismatched(t *testing.T) {
	root := Parse(`<div><p>one<p>two</div></b>`)
	if root.Find("div") == nil {
		t.Fatal("unclosed children must still parse")
	}
	// Must not panic and text must be reachable.
	if !strings.Contains(root.InnerText(), "two") {
		t.Fatalf("text = %q", root.InnerText())
	}
}

func TestInnerTextExcludesScripts(t *testing.T) {
	root := Parse(`<body>visible<script>var hidden = "secret";</script> tail</body>`)
	text := root.InnerText()
	if strings.Contains(text, "secret") {
		t.Fatalf("script leaked into text: %q", text)
	}
	if !strings.Contains(text, "visible") || !strings.Contains(text, "tail") {
		t.Fatalf("text = %q", text)
	}
}

func TestScripts(t *testing.T) {
	root := Parse(`<script>one()</script><div></div><script>two()</script>`)
	s := root.Scripts()
	if len(s) != 2 || !strings.Contains(s[0], "one") || !strings.Contains(s[1], "two") {
		t.Fatalf("scripts = %q", s)
	}
}

func TestTriplets(t *testing.T) {
	tr := Triplets(`<div class="shop"><a href="/cart">Cart</a></div>`)
	want := []string{
		"attr:a.href", "attr:div.class", "tag:a", "tag:div",
		"trip:a.href=/cart", "trip:div.class=shop",
	}
	if len(tr) != len(want) {
		t.Fatalf("triplets = %v", tr)
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("triplets = %v, want %v", tr, want)
		}
	}
}

func TestTripletsPrefixAndHostFeatures(t *testing.T) {
	tr := Triplets(`<a href="/php?p=cheap+uggs">x</a><script src="https://s4.cnzz.com/stat.php?id=99"></script>`)
	wantSome := []string{
		"pfx:a.href=/php?p=",
		"host:script.src=s4.cnzz.com",
		"pfx:script.src=https://s4.cnzz.com/stat.php?id=",
	}
	have := map[string]bool{}
	for _, f := range tr {
		have[f] = true
	}
	for _, w := range wantSome {
		if !have[w] {
			t.Errorf("missing feature %q in %v", w, tr)
		}
	}
}

func TestURLHost(t *testing.T) {
	cases := map[string]string{
		"http://bit.ly/abc":     "bit.ly",
		"https://x.com?q=1":     "x.com",
		"https://y.com":         "y.com",
		"/relative/path":        "",
		"ftp://nope.com/":       "",
		"http://h.com/a/b#frag": "h.com",
	}
	for in, want := range cases {
		if got := urlHost(in); got != want {
			t.Errorf("urlHost(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTripletsTruncateLongValues(t *testing.T) {
	long := strings.Repeat("x", 500)
	tr := Triplets(`<div data-blob="` + long + `">`)
	for _, f := range tr {
		if len(f) > 100 {
			t.Fatalf("feature too long: %d bytes", len(f))
		}
	}
}

func TestTripletsDeterministicAndSorted(t *testing.T) {
	src := `<div a="1" b="2"><span c="3"></span></div>`
	a, b := Triplets(src), Triplets(src)
	if len(a) != len(b) {
		t.Fatal("nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic order")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestTermSet(t *testing.T) {
	set := TermSet(`<p>Cheap Louis Vuitton, bags!</p>`)
	for _, w := range []string{"cheap", "louis", "vuitton", "bags"} {
		if _, ok := set[w]; !ok {
			t.Errorf("missing term %q in %v", w, set)
		}
	}
}

func TestJaccard(t *testing.T) {
	a := map[string]struct{}{"x": {}, "y": {}}
	b := map[string]struct{}{"y": {}, "z": {}}
	if j := Jaccard(a, b); j != 1.0/3.0 {
		t.Fatalf("jaccard = %v", j)
	}
	if j := Jaccard(a, a); j != 1 {
		t.Fatalf("self jaccard = %v", j)
	}
	if j := Jaccard(nil, nil); j != 1 {
		t.Fatalf("empty jaccard = %v", j)
	}
	if j := Jaccard(a, nil); j != 0 {
		t.Fatalf("disjoint jaccard = %v", j)
	}
}

func TestJaccardSymmetryProperty(t *testing.T) {
	mk := func(words []string) map[string]struct{} {
		m := make(map[string]struct{})
		for _, w := range words {
			m[w] = struct{}{}
		}
		return m
	}
	check := func(xs, ys []string) bool {
		a, b := mk(xs), mk(ys)
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeNeverPanicsProperty(t *testing.T) {
	check := func(src string) bool {
		tokens(src)
		Parse(src)
		Triplets(src)
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRoundTripStructure(t *testing.T) {
	// Every start tag EachToken emits for well-formed input must appear
	// in the parse tree.
	src := `<html><head><title>t</title></head><body><div><ul><li>a</li><li>b</li></ul></div></body></html>`
	root := Parse(src)
	for _, tag := range []string{"html", "head", "title", "body", "div", "ul", "li"} {
		if root.Find(tag) == nil {
			t.Fatalf("tag %q lost in parse", tag)
		}
	}
	if len(root.FindAll("li")) != 2 {
		t.Fatal("li count wrong")
	}
}

func BenchmarkTriplets(b *testing.B) {
	src := strings.Repeat(`<div class="product"><a href="/item?id=1">Buy</a></div>`, 100)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Triplets(src)
	}
}
