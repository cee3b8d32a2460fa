// Package htmlgen synthesises the HTML the simulated web serves: counterfeit
// storefronts built from shared e-commerce templates plus per-campaign
// signature markers, keyword-stuffed doorway pages, compromised sites'
// original content, benign search results, seizure notice pages, and the
// obfuscated JavaScript cloaking payloads (redirect and full-page iframe)
// that the jsmini interpreter can execute.
//
// Generation is deterministic per (campaign, store/doorway, domain): the
// crawler may fetch the same URL many times and must see a stable document.
//
// The package is a hot path of the observe phase — every crawler fetch ends
// here — so it is built around reuse: documents are memoised in a sharded
// map whose lookup takes a []byte key, and both the key and the document
// under construction live in a pooled per-worker scratch object. The steady
// state (memo hit) performs zero allocations; a miss allocates only the
// interned key and document.
package htmlgen

import (
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/shard"
)

// Generator produces documents for one simulated world. Documents are
// deterministic per identity, so the generator memoises them: the crawler
// fetches the same URLs daily and must not pay generation cost each time.
type Generator struct {
	root  *rng.Source
	cache shard.Map[string]   // memo key -> document
	plats shard.Map[Platform] // store deployment ID -> platform

	scratch *parallel.Scratch[genScratch]
	// pageHint tracks the largest document built so far; fresh scratch
	// objects size their buffers from it so they start at steady-state
	// capacity instead of growing through reallocation.
	pageHint atomic.Int64
}

// genScratch is the per-worker scratch state: the memo key and the document
// under construction share reused buffers across calls.
type genScratch struct {
	key []byte
	buf []byte
}

// New returns a Generator deriving all randomness from r.
func New(r *rng.Source) *Generator {
	g := &Generator{root: r.Sub("htmlgen")}
	g.pageHint.Store(4 << 10)
	g.scratch = parallel.NewScratch(func() *genScratch {
		return &genScratch{
			key: make([]byte, 0, 160),
			buf: make([]byte, 0, g.pageHint.Load()),
		}
	})
	return g
}

// internPage stores the document built in s under the key built in s,
// returning the interned copy (first writer wins, and builds are
// deterministic per key, so racing copies are byte-identical).
func (g *Generator) internPage(s *genScratch) string {
	page, _ := g.cache.LoadOrStore(string(s.key), string(s.buf))
	g.notePage(len(s.buf))
	g.scratch.Put(s)
	return page
}

func (g *Generator) notePage(n int) {
	for {
		cur := g.pageHint.Load()
		if int64(n) <= cur || g.pageHint.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// rngFor yields the stable substream for one document identity.
func (g *Generator) rngFor(kind, id string) *rng.Source {
	return g.root.Sub(kind + "/" + id)
}

var fillerWords = []string{
	"quality", "fashion", "style", "classic", "genuine", "leather",
	"premium", "design", "collection", "season", "trend", "exclusive",
	"limited", "edition", "delivery", "worldwide", "guarantee", "original",
	"luxury", "authentic", "bestseller", "popular", "comfort", "elegant",
}

var productNouns = []string{
	"Handbag", "Tote", "Wallet", "Boots", "Sneakers", "Jacket", "Coat",
	"Watch", "Sunglasses", "Scarf", "Belt", "Headphones", "Polo Shirt",
	"Hoodie", "Slippers", "Backpack", "Bracelet", "Ring", "Earbuds",
}

// Platform is an e-commerce stack whose cookies/markup counterfeit stores
// reuse (§4.1.3 names Zen Cart and Magento; Realypay/Mallpayment
// processors; Ajstat/CNZZ analytics).
type Platform struct {
	Name      string
	Generator string // meta generator string
	CartPath  string
	Cookie    string // session cookie name the detection heuristic keys on
}

var platforms = []Platform{
	{"zencart", "shopping cart program by Zen Cart", "/index.php?main_page=shopping_cart", "zenid"},
	{"magento", "Magento, Varien, E-commerce", "/checkout/cart/", "frontend"},
}

// PlatformFor returns the e-commerce platform a store's pages are built on.
// It is derived from the same substream as StorePage, so markup and cookies
// always agree. The result is memoised per deployment: store sites consult
// it on every fetch to emit session cookies.
func (g *Generator) PlatformFor(sd *campaign.StoreDeployment) Platform {
	s := g.scratch.Get()
	s.key = append(s.key[:0], "plat/"...)
	s.key = append(s.key, sd.ID...)
	if p, ok := g.plats.GetBytes(s.key); ok {
		g.scratch.Put(s)
		return p
	}
	r := g.rngFor("store", sd.ID)
	p := platforms[r.Intn(len(platforms))]
	g.plats.Set(string(s.key), p)
	g.scratch.Put(s)
	return p
}

var processors = []string{"realypay", "mallpayment", "globalbill"}

// appendSentence appends a deterministic pseudo-sentence of n filler words,
// consuming one draw per word exactly like its strings.Join predecessor.
func appendSentence(dst []byte, r *rng.Source, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, rng.Pick(r, fillerWords)...)
	}
	return dst
}

func appendInt(dst []byte, n int) []byte {
	return strconv.AppendInt(dst, int64(n), 10)
}

// StorePage renders a counterfeit storefront's landing page as served on
// the given domain. The document mixes three layers of signal, which is
// what makes campaign classification non-trivial but learnable:
//
//   - platform markup shared across campaigns (Zen Cart / Magento classes,
//     cart and checkout affordances, payment-processor snippets),
//   - the campaign's in-house template signature (CSS prefix, analytics id,
//     comment markers, chat widget, meta markers),
//   - per-store noise (product mix, filler copy).
func (g *Generator) StorePage(sd *campaign.StoreDeployment, domain string) string {
	s := g.scratch.Get()
	s.key = append(s.key[:0], "store/"...)
	s.key = append(s.key, sd.ID...)
	s.key = append(s.key, '/')
	s.key = append(s.key, domain...)
	s.key = append(s.key, '/')
	s.key = append(s.key, sd.Campaign.Signature.TemplatePrefix...)
	if page, ok := g.cache.GetBytes(s.key); ok {
		g.scratch.Put(s)
		return page
	}
	s.buf = g.appendStorePage(s.buf[:0], sd, domain)
	return g.internPage(s)
}

func (g *Generator) appendStorePage(b []byte, sd *campaign.StoreDeployment, domain string) []byte {
	r := g.rngFor("store", sd.ID)
	sig := sd.Campaign.Signature
	plat := platforms[r.Intn(len(platforms))]
	proc := rng.Pick(r, processors)
	pfx := sig.TemplatePrefix
	if pfx == "" {
		pfx = "shop"
	}

	b = append(b, "<!DOCTYPE html>\n<html>\n<head>\n"...)
	b = append(b, "<title>"...)
	b = append(b, sd.Brand...)
	b = append(b, ' ')
	b = append(b, rng.Pick(r, productNouns)...)
	b = append(b, " Outlet - Official Online Store</title>\n"...)
	b = append(b, "<meta name=\"generator\" content=\""...)
	b = append(b, plat.Generator...)
	b = append(b, "\">\n"...)
	if sig.MetaMarker != "" {
		b = append(b, "<meta name=\""...)
		b = append(b, sig.MetaMarker...)
		b = append(b, "\" content=\""...)
		b = appendToken(b, r, 16)
		b = append(b, "\">\n"...)
	}
	b = append(b, "<meta name=\"description\" content=\""...)
	b = append(b, sd.Brand...)
	b = append(b, ' ')
	b = appendSentence(b, r, 8)
	b = append(b, "\">\n"...)
	b = append(b, "<link rel=\"stylesheet\" href=\"/skin/"...)
	b = append(b, pfx...)
	b = append(b, "/base.css\">\n"...)
	if sig.CommentMarker != "" {
		b = append(b, "<!-- "...)
		b = append(b, sig.CommentMarker...)
		b = append(b, " -->\n"...)
	}
	b = append(b, "</head>\n<body class=\""...)
	b = append(b, pfx...)
	b = append(b, "-body\">\n"...)
	b = append(b, "<div class=\""...)
	b = append(b, pfx...)
	b = append(b, "-header\"><h1>"...)
	b = append(b, sd.Brand...)
	b = append(b, ' ')
	b = append(b, localeBanner(sd.Locale)...)
	b = append(b, "</h1>"...)
	b = append(b, "<div class=\""...)
	b = append(b, pfx...)
	b = append(b, "-nav\"><a href=\"/\">Home</a> <a href=\""...)
	b = append(b, plat.CartPath...)
	b = append(b, "\">Cart</a> <a href=\"/checkout\">Checkout</a> <a href=\"/track\">Track Order</a></div></div>\n"...)

	nProducts := 6 + r.Intn(6)
	b = append(b, "<div class=\""...)
	b = append(b, pfx...)
	b = append(b, "-grid\">\n"...)
	for i := 0; i < nProducts; i++ {
		noun := rng.Pick(r, productNouns)
		price := 79 + r.Intn(300)
		b = append(b, "<div class=\""...)
		b = append(b, pfx...)
		b = append(b, "-product\"><a href=\"/item/"...)
		b = appendInt(b, i)
		b = append(b, "\">"...)
		b = append(b, sd.Brand...)
		b = append(b, ' ')
		b = append(b, rng.Pick(r, fillerWords)...)
		b = append(b, ' ')
		b = append(b, noun...)
		b = append(b, "</a><span class=\"price\">$"...)
		b = appendInt(b, price)
		b = append(b, ".00</span><a class=\"btn\" href=\"/cart/add/"...)
		b = appendInt(b, i)
		b = append(b, "\">Add to Cart</a></div>\n"...)
	}
	b = append(b, "</div>\n"...)
	b = append(b, "<p class=\""...)
	b = append(b, pfx...)
	b = append(b, "-copy\">"...)
	b = appendSentence(b, r, 18)
	b = append(b, "</p>\n"...)

	// Payment processor: the merchant id exposed in page source is how the
	// paper confirmed stores engage processors directly (§3.1.2).
	b = append(b, "<div class=\"payment\"><img src=\"https://pay."...)
	b = append(b, proc...)
	b = append(b, ".com/badge.png\" alt=\""...)
	b = append(b, proc...)
	b = append(b, "\"><input type=\"hidden\" name=\"merchant_id\" value=\""...)
	b = append(b, proc...)
	b = append(b, '-')
	b = appendMerchantID(b, merchantID(r, sd.ID))
	b = append(b, "\"></div>\n"...)
	if sig.AnalyticsID != "" {
		b = appendAnalyticsSnippet(b, sig.AnalyticsID)
	}
	if sig.ChatWidget != "" {
		b = append(b, "<script src=\"/chat/"...)
		b = append(b, sig.ChatWidget...)
		b = append(b, "/loader.js\"></script>\n"...)
	}
	if sig.ScriptLibrary != "" {
		b = append(b, "<script src=\"/js/"...)
		b = append(b, sig.ScriptLibrary...)
		b = append(b, "\"></script>\n"...)
	}
	b = append(b, "<div class=\"footer\">&copy; 2014 "...)
	b = append(b, domain...)
	b = append(b, ". "...)
	b = appendSentence(b, r, 6)
	b = append(b, "</div>\n"...)
	b = append(b, "</body>\n</html>\n"...)
	return b
}

func localeBanner(locale string) string {
	switch locale {
	case "uk":
		return "UK Official Outlet"
	case "de":
		return "Deutschland Online Shop"
	case "jp":
		return "日本公式オンラインストア"
	case "it":
		return "Negozio Online Italia"
	case "fr":
		return "Boutique en Ligne France"
	case "au":
		return "Australia Online Store"
	default:
		return "Factory Outlet Online"
	}
}

func merchantID(r *rng.Source, id string) int {
	var h int
	for _, c := range id {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return (h + r.Intn(1000)) % 1000000
}

// appendMerchantID renders the merchant number zero-padded to six digits
// (the %06d of the original template).
func appendMerchantID(dst []byte, m int) []byte {
	var tmp [8]byte
	s := strconv.AppendInt(tmp[:0], int64(m), 10)
	for i := len(s); i < 6; i++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

// appendToken appends the first n hex digits of a 16-digit token, always
// consuming all 16 draws so truncated and full tokens leave the substream
// in the same state.
func appendToken(dst []byte, r *rng.Source, n int) []byte {
	const hexdigits = "0123456789ABCDEF"
	var tok [16]byte
	for i := range tok {
		tok[i] = hexdigits[r.Intn(16)]
	}
	return append(dst, tok[:n]...)
}

// appendAnalyticsSnippet renders a web-analytics include whose account id is
// a strong campaign fingerprint (the paper lists 51.la, cnzz.com and
// statcounter as validation signals).
func appendAnalyticsSnippet(dst []byte, id string) []byte {
	switch {
	case strings.HasPrefix(id, "cnzz-"):
		dst = append(dst, "<script src=\"https://s4.cnzz.com/stat.php?id="...)
		dst = append(dst, id[5:]...)
		return append(dst, "\"></script>\n"...)
	case strings.HasPrefix(id, "51la-"):
		dst = append(dst, "<script src=\"https://js.users.51.la/"...)
		dst = append(dst, id[5:]...)
		return append(dst, ".js\"></script>\n"...)
	default:
		dst = append(dst, "<script src=\"https://analytics.example/"...)
		dst = append(dst, id...)
		return append(dst, ".js\"></script>\n"...)
	}
}

// DoorwayCrawlerPage renders what a search-engine crawler receives from a
// doorway: keyword-stuffed content crafted to rank for the vertical's
// terms, carrying the campaign's kit markers. The memo key covers the
// doorway identity and the full term list, assembled in one pass over the
// reused scratch buffer.
func (g *Generator) DoorwayCrawlerPage(dw *campaign.Doorway, terms []string) string {
	s := g.scratch.Get()
	s.key = append(s.key[:0], "door/"...)
	s.key = append(s.key, dw.ID...)
	for _, t := range terms {
		s.key = append(s.key, '|')
		s.key = append(s.key, t...)
	}
	if page, ok := g.cache.GetBytes(s.key); ok {
		g.scratch.Put(s)
		return page
	}
	s.buf = g.appendDoorwayCrawlerPage(s.buf[:0], dw, terms)
	return g.internPage(s)
}

func (g *Generator) appendDoorwayCrawlerPage(b []byte, dw *campaign.Doorway, terms []string) []byte {
	r := g.rngFor("doorway", dw.ID)
	sig := dw.Campaign.Signature
	b = append(b, "<!DOCTYPE html>\n<html>\n<head>\n"...)
	kw := terms
	if len(kw) > 12 {
		kw = kw[:12]
	}
	b = append(b, "<title>"...)
	for i, t := range firstN(kw, 3) {
		if i > 0 {
			b = append(b, " | "...)
		}
		b = append(b, t...)
	}
	b = append(b, "</title>\n"...)
	b = append(b, "<meta name=\"keywords\" content=\""...)
	for i, t := range kw {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t...)
	}
	b = append(b, "\">\n"...)
	if sig.MetaMarker != "" {
		b = append(b, "<meta name=\""...)
		b = append(b, sig.MetaMarker...)
		b = append(b, "\" content=\""...)
		b = appendToken(b, r, 16)
		b = append(b, "\">\n"...)
	}
	if sig.CommentMarker != "" {
		b = append(b, "<!-- "...)
		b = append(b, sig.CommentMarker...)
		b = append(b, " -->\n"...)
	}
	pfx := sig.TemplatePrefix
	if pfx == "" {
		pfx = "seo"
	}
	b = append(b, "</head>\n<body class=\""...)
	b = append(b, pfx...)
	b = append(b, "-door\">\n"...)
	for i, t := range kw {
		b = append(b, "<h2 class=\""...)
		b = append(b, pfx...)
		b = append(b, "-kw\"><a href=\""...)
		b = appendDoorwayPath(b, sig, t)
		b = append(b, "\">"...)
		b = append(b, t...)
		b = append(b, "</a></h2>\n"...)
		b = append(b, "<p>"...)
		b = append(b, t...)
		b = append(b, ' ')
		b = appendSentence(b, r, 14)
		b = append(b, ' ')
		b = append(b, t...)
		b = append(b, "</p>\n"...)
		if i%3 == 2 && sig.Shortener != "" {
			b = append(b, "<a href=\"http://"...)
			b = append(b, sig.Shortener...)
			b = append(b, '/')
			b = appendToken(b, r, 6)
			b = append(b, "\">more</a>\n"...)
		}
	}
	// Backlink farm block: doorways link to each other to mimic structure.
	b = append(b, "<div class=\""...)
	b = append(b, pfx...)
	b = append(b, "-links\">\n"...)
	for i := 0; i < 5; i++ {
		b = append(b, "<a href=\"http://"...)
		b = append(b, dw.Domain...)
		b = appendDoorwayPath(b, sig, rng.Pick(r, fillerWords))
		b = append(b, "\">"...)
		b = appendSentence(b, r, 2)
		b = append(b, "</a>\n"...)
	}
	b = append(b, "</div>\n"...)
	if sig.AnalyticsID != "" {
		b = appendAnalyticsSnippet(b, sig.AnalyticsID)
	}
	if sig.ScriptLibrary != "" {
		b = append(b, "<script src=\"/js/"...)
		b = append(b, sig.ScriptLibrary...)
		b = append(b, "\"></script>\n"...)
	}
	b = append(b, "</body>\n</html>\n"...)
	return b
}

// appendSlug appends term with spaces replaced by '+'.
func appendSlug(dst []byte, term string) []byte {
	for i := 0; i < len(term); i++ {
		if term[i] == ' ' {
			dst = append(dst, '+')
		} else {
			dst = append(dst, term[i])
		}
	}
	return dst
}

// appendDoorwayPath renders the URL path pattern that names several
// campaigns (e.g. PHP?P=), used both in links and in the campaign's PSR
// URLs.
func appendDoorwayPath(dst []byte, sig campaign.Signature, term string) []byte {
	if sig.URLToken == "" {
		dst = append(dst, "/?q="...)
		return appendSlug(dst, term)
	}
	if strings.Contains(sig.URLToken, "=") {
		dst = append(dst, '/')
		dst = append(dst, sig.URLToken...)
		return appendSlug(dst, term)
	}
	dst = append(dst, '/')
	dst = append(dst, sig.URLToken...)
	dst = append(dst, "/?p="...)
	return appendSlug(dst, term)
}

// DoorwayPath exposes the doorway URL path for a term, for URL construction
// elsewhere (SERPs, referrer logs).
func DoorwayPath(sig campaign.Signature, term string) string {
	return string(appendDoorwayPath(nil, sig, term))
}

var originalTopics = []string{
	"community garden", "youth chess club", "parish newsletter",
	"cycling society", "pottery workshop", "local history archive",
}

// CompromisedOriginalPage renders the legitimate content of the hacked site
// hosting a doorway: what a direct (non-search) visitor sees, keeping the
// compromise invisible to the site owner (§3.1.1).
func (g *Generator) CompromisedOriginalPage(domain string) string {
	s := g.scratch.Get()
	s.key = append(s.key[:0], "orig/"...)
	s.key = append(s.key, domain...)
	if page, ok := g.cache.GetBytes(s.key); ok {
		g.scratch.Put(s)
		return page
	}
	s.buf = g.appendCompromisedOriginalPage(s.buf[:0], domain)
	return g.internPage(s)
}

func (g *Generator) appendCompromisedOriginalPage(b []byte, domain string) []byte {
	r := g.rngFor("original", domain)
	topic := rng.Pick(r, originalTopics)
	b = append(b, "<!DOCTYPE html>\n<html>\n<head>\n"...)
	b = append(b, "<title>"...)
	b = append(b, strings.Title(topic)...) //nolint:staticcheck // ASCII topics only
	b = append(b, " - "...)
	b = append(b, domain...)
	b = append(b, "</title>\n"...)
	b = append(b, "<meta name=\"generator\" content=\"WordPress 3.5.1\">\n"...)
	b = append(b, "</head>\n<body>\n"...)
	b = append(b, "<h1>Welcome to the "...)
	b = append(b, topic...)
	b = append(b, "</h1>\n"...)
	for i := 0; i < 4; i++ {
		b = append(b, "<div class=\"post\"><h3>Post "...)
		b = appendInt(b, i+1)
		b = append(b, "</h3><p>Our "...)
		b = append(b, topic...)
		b = append(b, " meets weekly; see the calendar for details. "...)
		b = append(b, loremSentence(r)...)
		b = append(b, "</p></div>\n"...)
	}
	b = append(b, "<div class=\"sidebar\"><a href=\"/about\">About</a> <a href=\"/contact\">Contact</a></div>\n"...)
	b = append(b, "</body>\n</html>\n"...)
	return b
}

var loremFragments = []string{
	"Meetings are open to everyone and newcomers are always welcome.",
	"Please bring your own materials and a cup for tea.",
	"The annual exhibition will be held in the church hall this spring.",
	"Membership renewals are due at the end of the month.",
	"Thanks to all the volunteers who helped at the weekend event.",
}

func loremSentence(r *rng.Source) string { return rng.Pick(r, loremFragments) }

// BenignResultPage renders a legitimate (retailer, review, news) search
// result for a term — the non-poisoned remainder of each SERP.
func (g *Generator) BenignResultPage(domain, term string) string {
	s := g.scratch.Get()
	s.key = append(s.key[:0], "benign/"...)
	s.key = append(s.key, domain...)
	s.key = append(s.key, '/')
	s.key = append(s.key, term...)
	if page, ok := g.cache.GetBytes(s.key); ok {
		g.scratch.Put(s)
		return page
	}
	s.buf = g.appendBenignResultPage(s.buf[:0], domain, term)
	return g.internPage(s)
}

func (g *Generator) appendBenignResultPage(b []byte, domain, term string) []byte {
	r := g.rngFor("benign", domain)
	b = append(b, "<!DOCTYPE html>\n<html>\n<head>\n"...)
	b = append(b, "<title>"...)
	b = append(b, term...)
	b = append(b, " — reviews and prices | "...)
	b = append(b, domain...)
	b = append(b, "</title>\n"...)
	b = append(b, "</head>\n<body>\n"...)
	b = append(b, "<h1>Shopping guide: "...)
	b = append(b, term...)
	b = append(b, "</h1>\n"...)
	for i := 0; i < 3; i++ {
		b = append(b, "<div class=\"review\"><h3>Review "...)
		b = appendInt(b, i+1)
		b = append(b, "</h3><p>"...)
		b = append(b, loremSentence(r)...)
		b = append(b, "</p></div>\n"...)
	}
	b = append(b, "<p>"...)
	b = appendSentence(b, r, 12)
	b = append(b, "</p>\n"...)
	b = append(b, "</body>\n</html>\n"...)
	return b
}

// SeizureNotice renders the serving-notice page a seized domain returns,
// embedding the court case identifier the seizure analysis scrapes
// (§5.3's data collection path). It is built in scratch and not memoised
// here: simweb.SeizureNoticeSite serves all of a case's domains and keeps
// the notice it renders on its first fetch.
func (g *Generator) SeizureNotice(firm, caseID string, domains []string) string {
	s := g.scratch.Get()
	b := s.buf[:0]
	b = append(b, "<!DOCTYPE html>\n<html>\n<head>\n<title>Domain Seized</title>\n</head>\n<body>\n"...)
	b = append(b, "<h1>This domain has been seized</h1>\n"...)
	b = append(b, "<p>Pursuant to a court order obtained by <span class=\"firm\">"...)
	b = append(b, firm...)
	b = append(b, "</span> on behalf of the trademark holder, this domain name has been transferred to the control of the brand protection agent.</p>\n"...)
	b = append(b, "<div class=\"case\" data-case=\""...)
	b = append(b, caseID...)
	b = append(b, "\">Case No. "...)
	b = append(b, caseID...)
	b = append(b, "</div>\n"...)
	b = append(b, "<div class=\"seized-domains\">\n"...)
	for _, d := range domains {
		b = append(b, "<span class=\"seized\">"...)
		b = append(b, d...)
		b = append(b, "</span>\n"...)
	}
	b = append(b, "</div>\n</body>\n</html>\n"...)
	s.buf = b
	out := string(b)
	g.scratch.Put(s)
	return out
}

func firstN(ss []string, n int) []string {
	if len(ss) < n {
		return ss
	}
	return ss[:n]
}
