package simweb

import (
	"fmt"
	"net/url"
	"strings"
	"sync"

	"repro/internal/analytics"
	"repro/internal/campaign"
	"repro/internal/htmlgen"
	"repro/internal/simclock"
	"repro/internal/store"
)

// DoorwaySite is a compromised legitimate site hosting a campaign's cloaked
// doorway pages. Its Resolve hook maps a day to the absolute URL of the
// storefront the campaign currently forwards this doorway's traffic to; the
// world wires it so that seizure reactions and proactive rotation change
// where doorways send users, with the campaign's reaction delay applied.
type DoorwaySite struct {
	Doorway *campaign.Doorway
	Gen     *htmlgen.Generator
	Terms   []string // the vertical's monitored terms (keyword corpus)
	// Resolve returns the current store URL for this doorway's campaign and
	// vertical.
	Resolve func(d simclock.Day) string
	// JSRedirect selects the JavaScript redirect variant over HTTP 302 for
	// redirect-cloaking doorways.
	JSRedirect bool
}

// Serve implements Site with the cloaking semantics of §3.1.1.
func (s *DoorwaySite) Serve(req Request) Response {
	isCrawler := strings.Contains(req.UserAgent, "Googlebot")
	fromSearch := strings.Contains(req.Referrer, "google.") ||
		strings.Contains(req.Referrer, "/search")
	target := s.Resolve(req.Day)

	switch s.Doorway.Campaign.Cloaking {
	case campaign.IframeCloaking:
		// Everyone receives the same document; only a rendering visitor
		// discovers the full-page iframe.
		base := s.Gen.DoorwayCrawlerPage(s.Doorway, s.Terms)
		if target == "" {
			return Response{Status: 200, Body: base}
		}
		return Response{Status: 200,
			Body: s.Gen.CloakedDoorwayUserPage(base, s.Doorway.ID, target)}
	case campaign.UserAgentCloaking:
		if isCrawler {
			return Response{Status: 200, Body: s.Gen.DoorwayCrawlerPage(s.Doorway, s.Terms)}
		}
		if target == "" {
			return Response{Status: 200, Body: s.Gen.CompromisedOriginalPage(s.Doorway.Domain)}
		}
		return Response{Status: 302, Location: target, Body: "redirecting"}
	default: // RedirectCloaking
		if isCrawler {
			return Response{Status: 200, Body: s.Gen.DoorwayCrawlerPage(s.Doorway, s.Terms)}
		}
		if !fromSearch || target == "" {
			// Direct visitors see the original site, keeping the
			// compromise invisible to its owner.
			return Response{Status: 200, Body: s.Gen.CompromisedOriginalPage(s.Doorway.Domain)}
		}
		if s.JSRedirect {
			base := s.Gen.CompromisedOriginalPage(s.Doorway.Domain)
			return Response{Status: 200,
				Body: s.Gen.InjectRedirect(base, s.Doorway.ID, target)}
		}
		return Response{Status: 302, Location: target, Body: "redirecting"}
	}
}

// StoreSite serves a counterfeit storefront. One StoreSite may be
// registered under several domains over its lifetime; seized domains are
// re-registered to a SeizureNoticeSite by the intervention engine, so this
// site only ever sees traffic for domains the store still controls.
type StoreSite struct {
	Store *store.Store
	Gen   *htmlgen.Generator
	// Window is needed to render analytics reports with civil dates.
	Window simclock.Window

	// cookieOnce guards the lazily built detection cookies; they depend
	// only on the store's immutable identity, and the store is fetched on
	// every observe pass, so rebuilding them per request was a steady
	// allocation tax.
	cookieOnce sync.Once
	cookieVals []string
	// checkoutOnce guards the cart/checkout body, equally static per store.
	checkoutOnce sync.Once
	checkoutBody string
}

// Serve implements Site: the landing page with detection-relevant cookies,
// cart/checkout pages, an order-creation endpoint, and (for stores that
// left them public) the AWStats report.
func (s *StoreSite) Serve(req Request) Response {
	host, path, ok := SplitURL(req.URL)
	if !ok {
		u, err := url.Parse(req.URL)
		if err != nil {
			return Response{Status: 400, Body: "bad url"}
		}
		host, path = u.Hostname(), u.Path
	}
	dep := s.Store.Dep
	switch {
	case strings.HasPrefix(path, analytics.DefaultPath):
		if !s.Store.AWStatsPublic {
			return Response{Status: 403, Body: "forbidden"}
		}
		snap := s.Store.Snapshot()
		return Response{Status: 200, Body: analytics.Render(
			host, s.Window, snap.Visits, snap.PageViews, snap.Referrers)}
	case strings.HasPrefix(path, "/order/new"):
		// Stores belonging to a collapsed campaign stop processing orders
		// (the paper observed KEY's stores doing exactly this after its
		// PSR collapse).
		if dep.Campaign.OrdersHalted(req.Day) {
			return Response{Status: 503, Body: "store closed"}
		}
		// A payment-level intervention leaves the site up but checkout
		// broken.
		if s.Store.PaymentHalted(req.Day) {
			return Response{Status: 200, Body: "<html><body><h1>Payment error</h1><p>Your card could not be processed. Please try again later.</p></body></html>"}
		}
		// Creating an order allocates the next order number before any
		// payment details are taken — the property purchase-pair exploits.
		n := s.Store.PlaceOrder()
		body := fmt.Sprintf(
			"<html><head><title>Order Confirmation</title></head><body><h1>Thank you</h1><div class=\"order-number\">Order No. %d</div><p>Proceed to payment processing.</p></body></html>", n)
		return Response{Status: 200, Body: body, Cookies: s.cookies()}
	case strings.Contains(path, "cart") || strings.HasPrefix(path, "/checkout"):
		s.checkoutOnce.Do(func() {
			s.checkoutBody = fmt.Sprintf(
				"<html><head><title>Checkout - %s</title></head><body><h1>Shopping Cart</h1><a href=\"/order/new\">Place order</a><div class=\"processor\" data-bin=\"%s\">%s</div></body></html>",
				dep.Brand, s.Store.Processor.BIN, s.Store.Processor.Name)
		})
		return Response{Status: 200, Body: s.checkoutBody, Cookies: s.cookies()}
	default:
		return Response{Status: 200,
			Body:    s.Gen.StorePage(dep, host),
			Cookies: s.cookies(),
		}
	}
}

// cookies returns the Set-Cookie values the store detection heuristic keys
// on: the e-commerce platform session, the payment processor session, and
// the analytics cookie (§4.1.3).
func (s *StoreSite) cookies() []string {
	s.cookieOnce.Do(func() {
		plat := s.Gen.PlatformFor(s.Store.Dep)
		out := []string{
			fmt.Sprintf("%s=%s; path=/", plat.Cookie, sessionToken(s.Store.ID())),
			fmt.Sprintf("%s_session=%s; path=/", s.Store.Processor.Name, sessionToken(s.Store.ID()+"p")),
		}
		if id := s.Store.Dep.Campaign.Signature.AnalyticsID; strings.HasPrefix(id, "cnzz-") {
			out = append(out, fmt.Sprintf("CNZZDATA%s=1; path=/", id[5:]))
		}
		s.cookieVals = out
	})
	return s.cookieVals
}

func sessionToken(seed string) string {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// BenignSite serves legitimate search results.
type BenignSite struct {
	Domain string
	Term   string
	Gen    *htmlgen.Generator
}

// Serve implements Site.
func (s *BenignSite) Serve(Request) Response {
	return Response{Status: 200, Body: s.Gen.BenignResultPage(s.Domain, s.Term)}
}

// SeizureNoticeSite replaces a seized domain: every path serves the serving
// notice with the court case identifier and co-seized domains. One site
// serves all of a case's domains, and the notice depends only on the case,
// so it is rendered once, on the first Serve; the fields must not change
// after that.
type SeizureNoticeSite struct {
	Firm    string
	CaseID  string
	Domains []string
	Gen     *htmlgen.Generator

	bodyOnce sync.Once
	body     string
}

// Serve implements Site.
func (s *SeizureNoticeSite) Serve(Request) Response {
	s.bodyOnce.Do(func() {
		s.body = s.Gen.SeizureNotice(s.Firm, s.CaseID, s.Domains)
	})
	return Response{Status: 200, Body: s.body}
}

// StaticSite serves one fixed body for every path (used for C&C hosts and
// miscellaneous infrastructure).
type StaticSite struct{ Body string }

// Serve implements Site.
func (s *StaticSite) Serve(Request) Response {
	return Response{Status: 200, Body: s.Body}
}
