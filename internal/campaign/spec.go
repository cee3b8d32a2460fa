// Package campaign encodes the SEO campaign ecosystem: the roster of 52
// distinct campaigns the paper identifies (Table 2), each campaign's
// HTML/infrastructure signature, the verticals it targets, its cloaking
// technique, its SEO scheduling (peak ranges), and its operational
// behaviour under intervention (backup domains, rotation, reaction time).
//
// The roster is scenario data: the paper's ground truth, used both to drive
// the synthetic web and as the labels the classifier must recover.
package campaign

import (
	"fmt"
	"time"

	"repro/internal/brands"
	"repro/internal/simclock"
)

// CloakingMode is the technique a campaign's doorways use to show search
// engines different content than users (§3.1.1).
type CloakingMode int

const (
	// RedirectCloaking serves crawlers a keyword-stuffed page while users
	// arriving from a search results page are redirected (HTTP or JS) to
	// the store.
	RedirectCloaking CloakingMode = iota
	// IframeCloaking serves the same document to everyone; client-side
	// JavaScript loads the store in a full-viewport iframe, so only a
	// rendering crawler observes the storefront.
	IframeCloaking
	// UserAgentCloaking keys entirely on the crawler User-Agent and
	// redirects all other visitors regardless of referrer.
	UserAgentCloaking
)

// String implements fmt.Stringer.
func (m CloakingMode) String() string {
	switch m {
	case RedirectCloaking:
		return "redirect"
	case IframeCloaking:
		return "iframe"
	case UserAgentCloaking:
		return "user-agent"
	}
	return fmt.Sprintf("CloakingMode(%d)", int(m))
}

// Signature is the set of idiosyncratic markers a campaign's in-house
// templates leave in generated HTML — the signal the classifier learns.
// Every field is optional; a campaign typically exhibits two to four.
type Signature struct {
	URLToken       string // token in doorway URL paths (e.g. "php?p=")
	MetaMarker     string // a meta tag name=content marker (e.g. msvalidate.01)
	AnalyticsID    string // web-analytics account id embedded in pages
	TemplatePrefix string // CSS class prefix used by store templates
	ChatWidget     string // live-chat widget include ("livezilla", ...)
	CommentMarker  string // distinctive HTML comment left by the kit
	Shortener      string // link-shortener domain used in backlinks
	ScriptLibrary  string // bundled JS library name (e.g. robertpenner tween)
}

// Spec is the static scenario description of one campaign.
type Spec struct {
	Name      string
	Doorways  int // doorway domains operated (Table 2)
	Stores    int // storefronts monetising its traffic (Table 2)
	Brands    int // brands whose trademarks it abuses (Table 2)
	PeakDays  int // duration of its peak-poisoning period (Table 2)
	Verticals []brands.Vertical
	Cloaking  CloakingMode
	Signature Signature

	// ActiveFrom/ActiveTo bound the campaign's SEO activity in study days;
	// ActiveTo == 0 means "through the end of the window".
	ActiveFrom simclock.Day
	ActiveTo   simclock.Day
	// PeakFrom positions the campaign's peak window (PeakDays long).
	PeakFrom simclock.Day
	// DemotedOn, if non-zero, is the day the search engine demoted the
	// campaign's doorways en masse (the KEY event of §5.2.1).
	DemotedOn simclock.Day
	// Top10SuppressedFrom/To mark a period when the campaign holds
	// top-100 positions but almost none in the top 10 (MOONKIS, §5.2.1).
	Top10SuppressedFrom simclock.Day
	Top10SuppressedTo   simclock.Day
	// ReactionDays is how long the campaign takes to re-point doorways at
	// a backup store domain after a seizure (§5.3.2; PHP?P= reacted in 1).
	ReactionDays int
	// RotationDays, if non-zero, proactively rotates store domains on this
	// period (the BIGLOVE coco*.com behaviour of §5.2.3).
	RotationDays int

	// key is keyOf(Name), filled by the roster builders: the engine and
	// the world look the key up per SERP slot and per doorway.
	key string
}

// Key returns the campaign's stable lowercase identifier.
func (s *Spec) Key() string {
	if s.key != "" {
		return s.key
	}
	return keyOf(s.Name)
}

func keyOf(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c-'A'+'a')
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			out = append(out, c)
		case c == '?' || c == '=':
			out = append(out, c)
		case c == '.':
			out = append(out, '.')
		}
	}
	return string(out)
}

// day converts a civil date into a study-window day index, tolerating dates
// outside the window (campaigns can predate the crawl).
func day(w simclock.Window, y int, m time.Month, d int) simclock.Day {
	return w.DayOf(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))
}

// Roster returns the 52-campaign scenario for the given study window.
// The 38 campaigns of Table 2 (25+ doorways) appear with the paper's
// counts; 14 minor campaigns round out the 52 the classifier identifies.
func Roster(w simclock.Window) []*Spec {
	B := func(vs ...brands.Vertical) []brands.Vertical { return vs }
	all13 := []brands.Vertical{ // every vertical except the starred three
		brands.Abercrombie, brands.Adidas, brands.BeatsByDre,
		brands.Clarisonic, brands.Golf, brands.IsabelMarant,
		brands.Moncler, brands.Nike, brands.RalphLauren,
		brands.Sunglasses, brands.Tiffany, brands.Watches, brands.Woolrich,
	}
	specs := []*Spec{
		{
			Name: "KEY", Doorways: 1980, Stores: 97, Brands: 28, PeakDays: 65,
			Verticals: all13, Cloaking: RedirectCloaking,
			Signature: Signature{URLToken: "key=", TemplatePrefix: "ky",
				CommentMarker: "kit:key-v3", AnalyticsID: "cnzz-3301127"},
			PeakFrom: 0, DemotedOn: day(w, 2013, time.December, 15),
			ReactionDays: 9,
		},
		{
			Name: "NEWSORG", Doorways: 926, Stores: 7, Brands: 5, PeakDays: 24,
			Verticals: B(brands.BeatsByDre, brands.Moncler, brands.Nike),
			Cloaking:  RedirectCloaking,
			Signature: Signature{URLToken: "news.php", CommentMarker: "newsorg",
				TemplatePrefix: "nws"},
			PeakFrom: day(w, 2013, time.November, 23), ReactionDays: 12,
		},
		{
			Name: "MOONKIS", Doorways: 95, Stores: 7, Brands: 4, PeakDays: 99,
			Verticals: B(brands.BeatsByDre, brands.Adidas),
			Cloaking:  IframeCloaking,
			Signature: Signature{TemplatePrefix: "mk", AnalyticsID: "51la-880204",
				CommentMarker: "moonkis"},
			ActiveFrom:          day(w, 2014, time.January, 1),
			PeakFrom:            day(w, 2014, time.January, 5),
			Top10SuppressedFrom: day(w, 2014, time.March, 1),
			Top10SuppressedTo:   day(w, 2014, time.March, 28),
			ReactionDays:        8,
		},
		{
			Name: "JSUS", Doorways: 439, Stores: 59, Brands: 27, PeakDays: 68,
			Verticals: B(brands.BeatsByDre, brands.Uggs, brands.Moncler,
				brands.Nike, brands.Sunglasses, brands.Watches),
			Cloaking: RedirectCloaking,
			Signature: Signature{URLToken: "jsus", ScriptLibrary: "jsus.js",
				TemplatePrefix: "js-shop"},
			PeakFrom: day(w, 2013, time.December, 10), ReactionDays: 10,
		},
		{
			Name: "PAULSIMON", Doorways: 328, Stores: 33, Brands: 12, PeakDays: 128,
			Verticals: B(brands.BeatsByDre, brands.Uggs, brands.Adidas,
				brands.Nike),
			Cloaking: RedirectCloaking,
			Signature: Signature{CommentMarker: "paulsimon", TemplatePrefix: "ps",
				AnalyticsID: "cnzz-5512908"},
			PeakFrom: day(w, 2014, time.January, 20), ReactionDays: 14,
		},
		{
			Name: "MSVALIDATE", Doorways: 530, Stores: 98, Brands: 6, PeakDays: 52,
			Verticals: B(brands.LouisVuitton, brands.Uggs, brands.Moncler),
			Cloaking:  IframeCloaking,
			Signature: Signature{MetaMarker: "msvalidate.01",
				TemplatePrefix: "msv", AnalyticsID: "cnzz-1180522"},
			PeakFrom: day(w, 2014, time.February, 10), ReactionDays: 7,
		},
		{
			Name: "BIGLOVE", Doorways: 767, Stores: 92, Brands: 30, PeakDays: 92,
			Verticals: B(brands.LouisVuitton, brands.Uggs, brands.IsabelMarant,
				brands.Moncler, brands.Tiffany, brands.Watches),
			Cloaking: RedirectCloaking,
			Signature: Signature{CommentMarker: "biglove-kit",
				TemplatePrefix: "bl", AnalyticsID: "51la-201877"},
			// Peak mid-May through mid-August: the Figure 5 coco*.com case
			// study plays out in this window, with proactive 45-day domain
			// rotation staying ahead of the July seizure sweep.
			PeakFrom: day(w, 2014, time.May, 15), ReactionDays: 5,
			RotationDays: 45,
		},
		{
			Name: "MOKLELE", Doorways: 982, Stores: 15, Brands: 4, PeakDays: 36,
			Verticals: B(brands.LouisVuitton, brands.Moncler),
			Cloaking:  RedirectCloaking,
			Signature: Signature{URLToken: "moklele", TemplatePrefix: "mok"},
			PeakFrom:  day(w, 2013, time.December, 1), ReactionDays: 15,
		},
		{
			Name: "NORTHFACEC", Doorways: 432, Stores: 2, Brands: 1, PeakDays: 60,
			Verticals: B(brands.LouisVuitton),
			Cloaking:  UserAgentCloaking,
			Signature: Signature{URLToken: "northfacec", TemplatePrefix: "nfc"},
			PeakFrom:  day(w, 2014, time.January, 10), ReactionDays: 20,
		},
		{
			Name: "LV.0", Doorways: 42, Stores: 3, Brands: 1, PeakDays: 62,
			Verticals: B(brands.LouisVuitton),
			Cloaking:  IframeCloaking,
			Signature: Signature{TemplatePrefix: "lvz", CommentMarker: "lv0"},
			PeakFrom:  day(w, 2014, time.April, 1), ReactionDays: 12,
		},
		{
			Name: "LV.1", Doorways: 270, Stores: 12, Brands: 9, PeakDays: 90,
			Verticals: B(brands.LouisVuitton, brands.Sunglasses),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "lv1", AnalyticsID: "cnzz-7620011"},
			PeakFrom:  day(w, 2014, time.February, 15), ReactionDays: 11,
		},
		{
			Name: "UGGS.0", Doorways: 428, Stores: 6, Brands: 5, PeakDays: 30,
			Verticals: B(brands.Uggs),
			Cloaking:  RedirectCloaking,
			Signature: Signature{URLToken: "uggs0", TemplatePrefix: "ug0"},
			PeakFrom:  day(w, 2013, time.November, 25), ReactionDays: 13,
		},
		{
			Name: "PHP?P=", Doorways: 255, Stores: 55, Brands: 24, PeakDays: 96,
			Verticals: B(brands.Abercrombie, brands.Woolrich, brands.Uggs,
				brands.RalphLauren, brands.Adidas),
			Cloaking: RedirectCloaking,
			Signature: Signature{URLToken: "php?p=", TemplatePrefix: "pp",
				AnalyticsID: "51la-114009"},
			PeakFrom: day(w, 2013, time.December, 20), ReactionDays: 1,
		},
		{
			Name: "VERA", Doorways: 155, Stores: 38, Brands: 12, PeakDays: 156,
			Verticals: B(brands.IsabelMarant, brands.Moncler, brands.Woolrich,
				brands.Watches),
			Cloaking: IframeCloaking,
			Signature: Signature{CommentMarker: "vera-theme",
				TemplatePrefix: "vera", AnalyticsID: "cnzz-2288401"},
			PeakFrom: day(w, 2014, time.January, 1), ReactionDays: 9,
		},
		{
			Name: "BITLY", Doorways: 190, Stores: 40, Brands: 15, PeakDays: 89,
			Verticals: B(brands.LouisVuitton, brands.Nike, brands.Sunglasses),
			Cloaking:  RedirectCloaking,
			Signature: Signature{Shortener: "bit.ly", TemplatePrefix: "btl"},
			PeakFrom:  day(w, 2014, time.March, 10), ReactionDays: 10,
		},
		{
			Name: "ADFLYID", Doorways: 100, Stores: 18, Brands: 4, PeakDays: 66,
			Verticals: B(brands.Nike, brands.Adidas),
			Cloaking:  RedirectCloaking,
			Signature: Signature{Shortener: "adf.ly", TemplatePrefix: "afy"},
			PeakFrom:  day(w, 2014, time.February, 1), ReactionDays: 16,
		},
		{
			Name: "G2GMART", Doorways: 916, Stores: 28, Brands: 3, PeakDays: 53,
			Verticals: B(brands.LouisVuitton, brands.Moncler, brands.IsabelMarant),
			Cloaking:  UserAgentCloaking,
			Signature: Signature{URLToken: "g2gmart", TemplatePrefix: "g2g"},
			PeakFrom:  day(w, 2014, time.April, 10), ReactionDays: 18,
		},
		{
			Name: "HACKEDLIVEZILLA", Doorways: 43, Stores: 49, Brands: 9, PeakDays: 56,
			Verticals: B(brands.Uggs, brands.Moncler, brands.Woolrich),
			Cloaking:  RedirectCloaking,
			Signature: Signature{ChatWidget: "livezilla-hacked",
				TemplatePrefix: "hlz"},
			PeakFrom: day(w, 2014, time.January, 15), ReactionDays: 6,
		},
		{
			Name: "LIVEZILLA", Doorways: 420, Stores: 33, Brands: 16, PeakDays: 70,
			Verticals: B(brands.Uggs, brands.IsabelMarant, brands.Tiffany,
				brands.Watches),
			Cloaking:  RedirectCloaking,
			Signature: Signature{ChatWidget: "livezilla", TemplatePrefix: "lvz2"},
			PeakFrom:  day(w, 2014, time.February, 20), ReactionDays: 12,
		},
		{
			Name: "IFRAMEINJS", Doorways: 200, Stores: 2, Brands: 1, PeakDays: 39,
			Verticals: B(brands.Moncler),
			Cloaking:  IframeCloaking,
			Signature: Signature{ScriptLibrary: "frame-loader.js",
				TemplatePrefix: "ifj"},
			PeakFrom: day(w, 2014, time.March, 20), ReactionDays: 14,
		},
		{
			Name: "JAROKRAFKA", Doorways: 266, Stores: 55, Brands: 3, PeakDays: 87,
			Verticals: B(brands.LouisVuitton, brands.IsabelMarant),
			Cloaking:  RedirectCloaking,
			Signature: Signature{CommentMarker: "jarokrafka",
				TemplatePrefix: "jk", AnalyticsID: "51la-930211"},
			PeakFrom: day(w, 2014, time.January, 25), ReactionDays: 8,
		},
		{
			Name: "M10", Doorways: 581, Stores: 35, Brands: 8, PeakDays: 30,
			Verticals: B(brands.LouisVuitton, brands.Uggs, brands.Nike),
			Cloaking:  RedirectCloaking,
			Signature: Signature{URLToken: "m10", TemplatePrefix: "m10"},
			PeakFrom:  day(w, 2014, time.May, 1), ReactionDays: 13,
		},
		{
			Name: "NYY", Doorways: 29, Stores: 14, Brands: 5, PeakDays: 40,
			Verticals: B(brands.Uggs, brands.RalphLauren),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "nyy", CommentMarker: "nyy-kit"},
			PeakFrom:  day(w, 2014, time.April, 20), ReactionDays: 17,
		},
		{
			Name: "PAGERAND", Doorways: 122, Stores: 7, Brands: 4, PeakDays: 43,
			Verticals: B(brands.Uggs, brands.Golf),
			Cloaking:  RedirectCloaking,
			Signature: Signature{URLToken: "pagerand", TemplatePrefix: "pgr"},
			PeakFrom:  day(w, 2014, time.February, 5), ReactionDays: 15,
		},
		{
			Name: "PARTNER", Doorways: 62, Stores: 9, Brands: 5, PeakDays: 33,
			Verticals: B(brands.Abercrombie, brands.Adidas),
			Cloaking:  RedirectCloaking,
			Signature: Signature{URLToken: "partner", TemplatePrefix: "ptn"},
			PeakFrom:  day(w, 2014, time.March, 15), ReactionDays: 19,
		},
		{
			Name: "ROBERTPENNER", Doorways: 56, Stores: 7, Brands: 12, PeakDays: 50,
			Verticals: B(brands.Uggs, brands.Tiffany, brands.Watches),
			Cloaking:  IframeCloaking,
			Signature: Signature{ScriptLibrary: "robertpenner-tween.js",
				TemplatePrefix: "rp"},
			PeakFrom: day(w, 2014, time.January, 8), ReactionDays: 11,
		},
		{
			Name: "SCHEMA.ORG", Doorways: 46, Stores: 17, Brands: 7, PeakDays: 54,
			Verticals: B(brands.Uggs, brands.Sunglasses, brands.Clarisonic),
			Cloaking:  RedirectCloaking,
			Signature: Signature{MetaMarker: "schema.org/Offer",
				TemplatePrefix: "sch"},
			PeakFrom: day(w, 2014, time.February, 25), ReactionDays: 9,
		},
		{
			Name: "SNOWFLASH", Doorways: 271, Stores: 14, Brands: 1, PeakDays: 48,
			Verticals: B(brands.Moncler),
			Cloaking:  RedirectCloaking,
			Signature: Signature{CommentMarker: "snowflash", TemplatePrefix: "snf"},
			PeakFrom:  day(w, 2013, time.November, 20), ReactionDays: 10,
		},
		{
			Name: "STYLESHEET", Doorways: 222, Stores: 9, Brands: 6, PeakDays: 63,
			Verticals: B(brands.Uggs, brands.IsabelMarant),
			Cloaking:  RedirectCloaking,
			Signature: Signature{URLToken: "stylesheet.php", TemplatePrefix: "sty"},
			PeakFrom:  day(w, 2014, time.March, 5), ReactionDays: 12,
		},
		{
			Name: "TIFFANY.0", Doorways: 26, Stores: 1, Brands: 1, PeakDays: 4,
			Verticals: B(brands.Tiffany),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "tf0", CommentMarker: "tiffany0"},
			PeakFrom:  day(w, 2014, time.May, 10), ReactionDays: 21,
		},
		{
			Name: "171760", Doorways: 30, Stores: 14, Brands: 7, PeakDays: 44,
			Verticals: B(brands.BeatsByDre, brands.Golf),
			Cloaking:  RedirectCloaking,
			Signature: Signature{AnalyticsID: "cnzz-171760", TemplatePrefix: "c17"},
			PeakFrom:  day(w, 2014, time.April, 5), ReactionDays: 14,
		},
		{
			Name: "CHANEL.1", Doorways: 50, Stores: 10, Brands: 4, PeakDays: 24,
			Verticals: B(brands.LouisVuitton, brands.Watches),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "ch1", CommentMarker: "chanel1"},
			PeakFrom:  day(w, 2014, time.June, 1), ReactionDays: 16,
		},
		{
			Name: "CAMPAIGN.02", Doorways: 26, Stores: 4, Brands: 3, PeakDays: 61,
			Verticals: B(brands.Uggs),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "c02", CommentMarker: "c02kit"},
			PeakFrom:  day(w, 2014, time.January, 12), ReactionDays: 18,
		},
		{
			Name: "CAMPAIGN.10", Doorways: 94, Stores: 18, Brands: 5, PeakDays: 99,
			Verticals: B(brands.Uggs, brands.Woolrich),
			Cloaking:  IframeCloaking,
			Signature: Signature{TemplatePrefix: "c10", AnalyticsID: "51la-550110"},
			PeakFrom:  day(w, 2014, time.February, 12), ReactionDays: 13,
		},
		{
			Name: "CAMPAIGN.12", Doorways: 118, Stores: 5, Brands: 1, PeakDays: 59,
			Verticals: B(brands.LouisVuitton),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "c12", CommentMarker: "c12kit"},
			PeakFrom:  day(w, 2014, time.March, 25), ReactionDays: 15,
		},
		{
			Name: "CAMPAIGN.14", Doorways: 39, Stores: 8, Brands: 2, PeakDays: 67,
			Verticals: B(brands.Uggs),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "c14", AnalyticsID: "cnzz-4411449"},
			PeakFrom:  day(w, 2014, time.April, 15), ReactionDays: 12,
		},
		{
			Name: "CAMPAIGN.15", Doorways: 364, Stores: 10, Brands: 10, PeakDays: 8,
			Verticals: B(brands.Moncler, brands.Nike, brands.Adidas),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "c15", CommentMarker: "c15kit"},
			PeakFrom:  day(w, 2013, time.December, 5), ReactionDays: 20,
		},
		{
			Name: "CAMPAIGN.17", Doorways: 61, Stores: 8, Brands: 3, PeakDays: 44,
			Verticals: B(brands.Uggs, brands.EdHardy),
			Cloaking:  RedirectCloaking,
			Signature: Signature{TemplatePrefix: "c17x", AnalyticsID: "51la-778230"},
			PeakFrom:  day(w, 2014, time.May, 20), ReactionDays: 14,
		},
	}
	// Fourteen minor campaigns (below Table 2's 25-doorway cutoff) complete
	// the 52 the classifier distinguishes.
	minorVerticals := [][]brands.Vertical{
		B(brands.EdHardy), B(brands.EdHardy, brands.Golf), B(brands.Golf),
		B(brands.Sunglasses), B(brands.Watches), B(brands.EdHardy),
		B(brands.Clarisonic), B(brands.IsabelMarant), B(brands.Woolrich),
		B(brands.EdHardy, brands.Sunglasses), B(brands.Golf, brands.Watches),
		B(brands.RalphLauren), B(brands.Woolrich, brands.EdHardy),
		B(brands.Sunglasses, brands.Watches),
	}
	for i, vs := range minorVerticals {
		n := i + 1
		specs = append(specs, &Spec{
			Name:     fmt.Sprintf("MINOR.%02d", n),
			Doorways: 8 + (n*5)%17, Stores: 1 + n%4, Brands: len(vs),
			PeakDays:  20 + (n*13)%60,
			Verticals: vs,
			Cloaking:  CloakingMode(n % 3),
			Signature: Signature{TemplatePrefix: fmt.Sprintf("mn%02d", n),
				CommentMarker: fmt.Sprintf("minor%02d", n)},
			PeakFrom:     simclock.Day(10 + (n * 37 % 200)),
			ReactionDays: 10 + n%12,
		})
	}
	for _, s := range specs {
		s.key = keyOf(s.Name)
	}
	return specs
}

// ByName indexes a roster by campaign name.
func ByName(specs []*Spec) map[string]*Spec {
	m := make(map[string]*Spec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
