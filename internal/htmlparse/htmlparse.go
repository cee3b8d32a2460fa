// Package htmlparse implements a small, dependency-free HTML tokenizer and
// a lenient DOM-lite tree. It is the shared substrate for the crawlers'
// semantic-diff cloaking detection, the headless renderer, the storefront
// detector, and the campaign classifier's tag–attribute–value feature
// extraction.
//
// The parser is deliberately forgiving: real doorway pages are generated by
// shoddy kits and compromised CMS templates, so unbalanced or malformed
// markup must never be fatal.
package htmlparse

import (
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/parallel"
)

// TokenType identifies the kind of a lexical token.
type TokenType int

// Token kinds produced by EachToken.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingToken
	CommentToken
	DoctypeToken
)

// Attr is a single name="value" attribute.
type Attr struct {
	Name  string
	Value string
}

// Token is one lexical token of an HTML document.
type Token struct {
	Type  TokenType
	Data  string // tag name for tags, text for text/comment/doctype
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it was present.
func (t Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// voidElements never take closing tags in HTML.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements contain raw character data until their literal end tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

// rawTextClosers pre-renders the "</tag" needle for each raw-text element
// so the tokenizer loop never concatenates strings per tag.
var rawTextClosers = map[string]string{"script": "</script", "style": "</style"}

// attrBufs recycles EachToken's attribute buffer across calls, so lexing
// a document allocates nothing once the pool is warm.
var attrBufs = sync.Pool{New: func() any { return new([]Attr) }}

// EachToken lexes src, invoking emit for every token in order; returning
// false stops the lex. It allocates no token slice, and a start tag's Attrs
// slice is only valid during its callback (the buffer is reused between
// tags and calls): a caller that keeps a tag's attributes copies them. The
// hot paths that extract features from every crawled page use this to
// avoid per-document garbage.
func EachToken(src string, emit func(Token) bool) {
	attrBuf := attrBufs.Get().(*[]Attr)
	defer func() {
		clear((*attrBuf)[:cap(*attrBuf)]) // hold no substrings of src
		attrBufs.Put(attrBuf)
	}()
	i := 0
	emitText := func(s string) bool {
		if s == "" {
			return true
		}
		return emit(Token{Type: TextToken, Data: s})
	}
	for i < len(src) {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			emitText(src[i:])
			return
		}
		if !emitText(src[i : i+lt]) {
			return
		}
		i += lt
		rest := src[i:]
		switch {
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest[4:], "-->")
			if end < 0 {
				emit(Token{Type: CommentToken, Data: rest[4:]})
				return
			}
			if !emit(Token{Type: CommentToken, Data: rest[4 : 4+end]}) {
				return
			}
			i += 4 + end + 3
		case strings.HasPrefix(rest, "<!"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				emitText(rest)
				return
			}
			if !emit(Token{Type: DoctypeToken, Data: strings.TrimSpace(rest[2:end])}) {
				return
			}
			i += end + 1
		case strings.HasPrefix(rest, "</"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				emitText(rest)
				return
			}
			name := strings.ToLower(strings.TrimSpace(rest[2:end]))
			if !emit(Token{Type: EndTagToken, Data: name}) {
				return
			}
			i += end + 1
		default:
			tok, consumed, ok := lexTag(rest, (*attrBuf)[:0])
			if !ok {
				if !emitText("<") {
					return
				}
				i++
				continue
			}
			*attrBuf = tok.Attrs // keep grown capacity for the next tag
			if !emit(tok) {
				return
			}
			i += consumed
			// Raw-text elements swallow everything up to their end tag.
			if tok.Type == StartTagToken && rawTextElements[tok.Data] {
				closer := rawTextClosers[tok.Data]
				idx := indexFold(src[i:], closer)
				if idx < 0 {
					emitText(src[i:])
					return
				}
				if !emitText(src[i : i+idx]) {
					return
				}
				gtRel := strings.IndexByte(src[i+idx:], '>')
				if !emit(Token{Type: EndTagToken, Data: tok.Data}) {
					return
				}
				if gtRel < 0 {
					return
				}
				i += idx + gtRel + 1
			}
		}
	}
}

// indexFold is strings.Index under ASCII case folding, for a lowercase
// ASCII sub whose first byte has no case (the raw-text closers all start
// with '<'). It returns a byte offset into s itself, so it allocates
// nothing and never folds non-ASCII runes: an offset found in a
// strings.ToLower copy is shifted wherever lowering changes a rune's
// length (invalid UTF-8 becomes a 3-byte U+FFFD) and can run past the end
// of s.
func indexFold(s, sub string) int {
	for i := 0; len(s)-i >= len(sub); i++ {
		j := strings.IndexByte(s[i:len(s)-len(sub)+1], sub[0])
		if j < 0 {
			return -1
		}
		i += j
		k := 1
		for k < len(sub) && lowerASCII(s[i+k]) == sub[k] {
			k++
		}
		if k == len(sub) {
			return i
		}
	}
	return -1
}

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// lexTag lexes a start tag beginning at src[0] == '<'. It returns the token,
// the number of bytes consumed and whether a tag was recognised. Attributes
// are appended to attrs (pass a zero-length slice with retained capacity to
// reuse a buffer).
func lexTag(src string, attrs []Attr) (Token, int, bool) {
	if len(src) < 2 || src[0] != '<' {
		return Token{}, 0, false
	}
	c := src[1]
	if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
		return Token{}, 0, false
	}
	end := strings.IndexByte(src, '>')
	if end < 0 {
		return Token{}, 0, false
	}
	inner := src[1:end]
	selfClosing := strings.HasSuffix(inner, "/")
	if selfClosing {
		inner = inner[:len(inner)-1]
	}
	name, rest := splitName(inner)
	tok := Token{Type: StartTagToken, Data: strings.ToLower(name)}
	if selfClosing {
		tok.Type = SelfClosingToken
	}
	tok.Attrs = parseAttrs(rest, attrs)
	return tok, end + 1, true
}

func splitName(s string) (name, rest string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r', '\f':
			return s[:i], s[i:]
		}
	}
	return s, ""
}

// parseAttrs parses the attribute region of a tag, appending to attrs.
func parseAttrs(s string, attrs []Attr) []Attr {
	i := 0
	skipSpace := func() {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r' || s[i] == '\f') {
			i++
		}
	}
	for {
		skipSpace()
		if i >= len(s) {
			return attrs
		}
		start := i
		for i < len(s) && s[i] != '=' && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
			i++
		}
		name := strings.ToLower(s[start:i])
		if name == "" {
			i++
			continue
		}
		skipSpace()
		if i >= len(s) || s[i] != '=' {
			attrs = append(attrs, Attr{Name: name})
			continue
		}
		i++ // '='
		skipSpace()
		if i >= len(s) {
			attrs = append(attrs, Attr{Name: name})
			return attrs
		}
		var val string
		if q := s[i]; q == '"' || q == '\'' {
			i++
			end := strings.IndexByte(s[i:], q)
			if end < 0 {
				val = s[i:]
				i = len(s)
			} else {
				val = s[i : i+end]
				i += end + 1
			}
		} else {
			start := i
			for i < len(s) && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
				i++
			}
			val = s[start:i]
		}
		attrs = append(attrs, Attr{Name: name, Value: val})
	}
}

// Node is a node of the DOM-lite tree: either an element (Tag != "") or a
// text node (Tag == "", Text set). Comments and doctypes are dropped.
type Node struct {
	Tag      string
	Attrs    []Attr
	Text     string
	Children []*Node
	Parent   *Node
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Parse builds a tree from src. The root node is a synthetic element with
// Tag == "#document". Mismatched end tags are ignored; unclosed elements are
// closed at end of input.
func Parse(src string) *Node {
	root := &Node{Tag: "#document"}
	cur := root
	EachToken(src, func(tok Token) bool {
		switch tok.Type {
		case TextToken:
			if strings.TrimSpace(tok.Data) != "" {
				cur.Children = append(cur.Children, &Node{Text: tok.Data, Parent: cur})
			}
		case StartTagToken:
			n := &Node{Tag: tok.Data, Attrs: ownAttrs(tok.Attrs), Parent: cur}
			cur.Children = append(cur.Children, n)
			if !voidElements[tok.Data] {
				cur = n
			}
		case SelfClosingToken:
			cur.Children = append(cur.Children, &Node{Tag: tok.Data, Attrs: ownAttrs(tok.Attrs), Parent: cur})
		case EndTagToken:
			// Close the nearest matching open element, if any.
			for p := cur; p != nil && p != root; p = p.Parent {
				if p.Tag == tok.Data {
					cur = p.Parent
					break
				}
			}
		}
		return true
	})
	return root
}

// ownAttrs copies a tag's attributes out of EachToken's reused buffer.
func ownAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	return append([]Attr(nil), attrs...)
}

// Visit walks the tree in document order, calling fn for every node
// (including text nodes). Returning false from fn stops the walk.
func (n *Node) Visit(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Visit(fn) {
			return false
		}
	}
	return true
}

// FindAll returns all elements with the given tag name in document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Visit(func(m *Node) bool {
		if m.Tag == tag {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Find returns the first element with the given tag name, or nil.
func (n *Node) Find(tag string) *Node {
	var found *Node
	n.Visit(func(m *Node) bool {
		if m.Tag == tag {
			found = m
			return false
		}
		return true
	})
	return found
}

// InnerText concatenates all descendant text nodes, excluding script and
// style contents, with single spaces between fragments.
func (n *Node) InnerText() string {
	var parts []string
	n.Visit(func(m *Node) bool {
		if rawTextElements[m.Tag] {
			return true // visit children? No: skip raw text below.
		}
		if m.Tag == "" {
			if p := m.Parent; p != nil && rawTextElements[p.Tag] {
				return true
			}
			if t := strings.TrimSpace(m.Text); t != "" {
				parts = append(parts, t)
			}
		}
		return true
	})
	return strings.Join(parts, " ")
}

// Scripts returns the raw text content of every <script> element.
func (n *Node) Scripts() []string {
	scripts := n.FindAll("script")
	out := make([]string, 0, len(scripts))
	for _, s := range scripts {
		var b strings.Builder
		for _, c := range s.Children {
			if c.Tag == "" {
				b.WriteString(c.Text)
			}
		}
		if b.Len() > 0 {
			out = append(out, b.String())
		}
	}
	return out
}

// Triplets extracts the deduplicated, sorted tag–attribute–value triplet
// features of a document, the classifier's feature vocabulary (after
// Der et al., "Knock It Off"). Each element contributes its bare tag
// ("tag:div"), each attribute name ("attr:div.class") and each
// tag-attribute-value triple ("trip:div.class=product-box"). Attribute
// values longer than 48 bytes are truncated so unbounded inline payloads
// cannot explode the vocabulary.
//
// Two generalised value features capture campaign URL patterns: values
// containing '=' also yield their query-prefix ("pfx:a.href=/php?p="),
// which is precisely the kind of kit fingerprint several campaigns are
// named after, and absolute URLs also yield their host
// ("host:script.src=s4.cnzz.com").
func Triplets(src string) []string {
	// Each feature is assembled in one reused byte buffer and checked
	// against the set with an allocation-free string(buf) map lookup, so a
	// string is only materialised the first time a feature appears. Pages
	// repeat their markup heavily (every product card emits the same
	// handful of features), which is what makes duplicate-free assembly the
	// classifier hot path's main allocation win; EachToken streams tokens
	// with a reused attribute buffer, so no token slice is built either.
	// The dedup set and feature buffer themselves come from a per-worker
	// scratch pool, so in steady state only the returned slice and any
	// first-seen feature strings allocate.
	st := tripScratch.Get()
	set, buf := st.set, st.buf
	feat := func(parts ...string) {
		buf = buf[:0]
		for _, p := range parts {
			buf = append(buf, p...)
		}
		if _, dup := set[string(buf)]; !dup {
			set[string(buf)] = struct{}{}
		}
	}
	EachToken(src, func(tok Token) bool {
		if tok.Type != StartTagToken && tok.Type != SelfClosingToken {
			return true
		}
		feat("tag:", tok.Data)
		for _, a := range tok.Attrs {
			feat("attr:", tok.Data, ".", a.Name)
			v := a.Value
			if len(v) > 48 {
				v = v[:48]
			}
			feat("trip:", tok.Data, ".", a.Name, "=", v)
			if i := strings.LastIndexByte(v, '='); i >= 0 {
				feat("pfx:", tok.Data, ".", a.Name, "=", v[:i+1])
			}
			if h := urlHost(a.Value); h != "" {
				feat("host:", tok.Data, ".", a.Name, "=", h)
			}
		}
		return true
	})
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	clear(set)
	st.buf = buf
	tripScratch.Put(st)
	return out
}

// tripState is the pooled scratch of Triplets: the dedup set and the
// feature-assembly buffer survive across calls (cleared, not reallocated).
type tripState struct {
	set map[string]struct{}
	buf []byte
}

var tripScratch = parallel.NewScratch(func() *tripState {
	return &tripState{set: make(map[string]struct{}, 256), buf: make([]byte, 0, 96)}
})

// urlHost extracts the host of an absolute http(s) URL, or "".
func urlHost(v string) string {
	rest, ok := strings.CutPrefix(v, "http://")
	if !ok {
		rest, ok = strings.CutPrefix(v, "https://")
	}
	if !ok {
		return ""
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' || rest[i] == '?' || rest[i] == '#' {
			return rest[:i]
		}
	}
	return rest
}

// termCutset is the punctuation stripped from word edges. All cutset bytes
// are ASCII, so byte-wise trimming is rune-correct on UTF-8 input.
const termCutset = ".,!?;:\"'()[]"

func isTermCut(c byte) bool { return strings.IndexByte(termCutset, c) >= 0 }

// TermSet returns the lowercased word set of the document's visible text,
// used by Dagger's semantic diff.
//
// It streams over EachToken rather than building a Node tree: visible text
// is exactly the text tokens outside script/style elements (the tree-based
// Parse(src).InnerText() definition, which the tests keep as the oracle),
// and each word is lowercased into a reused buffer so only first-seen terms
// allocate. This is the crawler detector's hottest call — every fetched
// body that misses the term-set cache lands here.
func TermSet(src string) map[string]struct{} {
	set := make(map[string]struct{})
	st := termScratch.Get()
	buf := st.buf
	inRaw := false
	EachToken(src, func(tok Token) bool {
		switch tok.Type {
		case StartTagToken:
			if rawTextElements[tok.Data] {
				inRaw = true
			}
		case EndTagToken:
			if rawTextElements[tok.Data] {
				inRaw = false
			}
		case TextToken:
			if !inRaw {
				buf = addTerms(set, buf, tok.Data)
			}
		}
		return true
	})
	st.buf = buf
	termScratch.Put(st)
	return set
}

type termState struct{ buf []byte }

var termScratch = parallel.NewScratch(func() *termState {
	return &termState{buf: make([]byte, 0, 64)}
})

// addTerms splits text into whitespace-separated words, lowercases each into
// buf (reused across calls), trims edge punctuation and inserts words of at
// least two bytes into set. The split/lower/trim/length pipeline matches
// strings.Fields(strings.ToLower(text)) + strings.Trim exactly: case
// mapping never changes a rune's whitespace or cutset status, so the
// per-word order of operations is equivalent to the whole-document one.
func addTerms(set map[string]struct{}, buf []byte, text string) []byte {
	i := 0
	for i < len(text) {
		r, size := utf8.DecodeRuneInString(text[i:])
		if unicode.IsSpace(r) {
			i += size
			continue
		}
		start := i
		for i < len(text) {
			r, size := utf8.DecodeRuneInString(text[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += size
		}
		buf = appendLower(buf[:0], text[start:i])
		lo, hi := 0, len(buf)
		for lo < hi && isTermCut(buf[lo]) {
			lo++
		}
		for hi > lo && isTermCut(buf[hi-1]) {
			hi--
		}
		w := buf[lo:hi]
		if len(w) >= 2 {
			if _, dup := set[string(w)]; !dup {
				set[string(w)] = struct{}{}
			}
		}
	}
	return buf
}

// appendLower appends the strings.ToLower image of s (per-rune
// unicode.ToLower, with the ASCII fast path).
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += size
	}
	return dst
}

// Jaccard returns the Jaccard similarity of two string sets (1 for two
// empty sets).
func Jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	var inter int
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
