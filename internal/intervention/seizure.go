package intervention

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/store"
)

// SeizureEngine executes the firms' case schedules against the live store
// fleet and drives the campaigns' reactions. The world supplies hooks so
// the engine stays decoupled from the web and the search engine.
type SeizureEngine struct {
	r      *rng.Source
	study  simclock.Window
	firms  []*Firm
	stores []*store.Store
	// FirstVisible maps store ID to the day its current domain first became
	// visible in poisoned search results (set by the driver as it crawls);
	// used for the firms' age eligibility.
	FirstVisible map[string]simclock.Day

	// OnSeize is called when a live domain is seized (serve the notice
	// page, invalidate crawler caches, ...).
	OnSeize func(domain string, c *CourtCase)
	// OnReact is called when a campaign re-points a store to a new domain.
	OnReact func(st *store.Store, newDomain string, day simclock.Day)

	schedule map[simclock.Day][]*scheduledCase
	cases    []*CourtCase
	pending  []reaction
	seq      map[string]int
}

type scheduledCase struct {
	firm  *Firm
	brand string
}

type reaction struct {
	day simclock.Day
	st  *store.Store
}

// NewSeizureEngine lays out every firm's case schedule over the seizure
// window. Historical (pre-study) cases are materialised immediately with
// their bulk domain lists; in-study cases fire via Tick. firms is the
// roster, Firms() unless an ablation rescales it.
func NewSeizureEngine(r *rng.Source, study simclock.Window, stores []*store.Store, firms []*Firm) *SeizureEngine {
	e := &SeizureEngine{
		r:            r.Sub("seizure"),
		study:        study,
		firms:        firms,
		stores:       stores,
		FirstVisible: make(map[string]simclock.Day),
		schedule:     make(map[simclock.Day][]*scheduledCase),
		seq:          make(map[string]int),
	}
	seizureWin := simclock.SeizureWindow()
	for _, f := range e.firms {
		brandsOf := make([]string, 0, len(f.Clients))
		for b := range f.Clients {
			brandsOf = append(brandsOf, b)
		}
		sort.Strings(brandsOf)
		for _, b := range brandsOf {
			for _, d := range f.CaseSchedule(b, seizureWin, study) {
				if d < 0 {
					// Pre-study case: record it with filler domains only
					// (buildCase appends it to the case log).
					e.buildCase(f, b, d, nil)
					continue
				}
				e.schedule[d] = append(e.schedule[d], &scheduledCase{firm: f, brand: b})
			}
		}
	}
	return e
}

// seizedVictim pairs a store with the domain a case seizes from it.
type seizedVictim struct {
	st  *store.Store
	dom string
}

// buildCase materialises a court case from stores seized at their current
// domains (historical cases pass none).
func (e *SeizureEngine) buildCase(f *Firm, brand string, day simclock.Day, seized []*store.Store) *CourtCase {
	victims := make([]seizedVictim, 0, len(seized))
	for _, st := range seized {
		victims = append(victims, seizedVictim{st: st, dom: st.CurrentDomain(day)})
	}
	return e.buildCaseDomains(f, brand, day, victims)
}

// buildCaseDomains materialises a court case: observed store domains plus
// the bulk tail of domains outside our crawler's view.
func (e *SeizureEngine) buildCaseDomains(f *Firm, brand string, day simclock.Day, victims []seizedVictim) *CourtCase {
	e.seq[f.Key]++
	year := e.study.Date(day).Year()
	c := &CourtCase{
		ID:    NewCaseID(f.Key, year, e.seq[f.Key]),
		Firm:  f,
		Brand: brand,
		Day:   day,
	}
	for _, v := range victims {
		c.Domains = append(c.Domains, v.dom)
		c.ObservedStoreIDs = append(c.ObservedStoreIDs, v.st.ID())
	}
	// Bulk tail: domains seized through the same case that never appeared
	// in our crawled results (the paper's court documents list hundreds
	// per filing).
	tail := f.DomainsPerCase - len(c.Domains) + e.r.Intn(f.DomainsPerCase/3+1) - f.DomainsPerCase/6
	for i := 0; i < tail; i++ {
		c.Domains = append(c.Domains, fmt.Sprintf("seized-%s-%s-%d.com",
			f.Key, sanitize(brand), len(e.cases)*1000+i))
	}
	e.cases = append(e.cases, c)
	return c
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			out = append(out, c)
		} else if c >= 'A' && c <= 'Z' {
			out = append(out, c-'A'+'a')
		}
	}
	return string(out)
}

// sellsBrand reports whether a store monetises the given brand (exact brand
// match, or the brand belongs to the store's vertical for composite
// sweeps).
func sellsBrand(st *store.Store, brand string) bool {
	if st.Dep.Brand == brand {
		return true
	}
	for _, b := range st.Dep.Vertical.MemberBrands() {
		if b == brand {
			return true
		}
	}
	return false
}

// Tick fires the day's scheduled cases and processes due campaign
// reactions. It returns the cases filed today.
func (e *SeizureEngine) Tick(day simclock.Day) []*CourtCase {
	var filed []*CourtCase
	for _, sc := range e.schedule[day] {
		// The firm's evidence is as old as its investigation: the seizure
		// targets the domain each store was on back then, which a
		// proactively rotating campaign may already have abandoned.
		observedAt := day - simclock.Day(sc.firm.InvestigationLagDays)
		if observedAt < 0 {
			observedAt = 0
		}
		var victims []seizedVictim
		for _, st := range e.stores {
			if !sellsBrand(st, sc.brand) {
				continue
			}
			dom := st.CurrentDomain(observedAt)
			if _, gone := st.SeizedOn(dom); gone {
				continue
			}
			first, seen := e.FirstVisible[st.ID()]
			if !seen || int(day-first) < sc.firm.MinStoreAgeDays {
				continue
			}
			victims = append(victims, seizedVictim{st: st, dom: dom})
		}
		// A filing names a bounded set of defendant stores; prioritise the
		// longest-visible ones (the investigation's oldest evidence).
		if sc.firm.MaxStoresPerCase > 0 && len(victims) > sc.firm.MaxStoresPerCase {
			sort.Slice(victims, func(i, j int) bool {
				fi := e.FirstVisible[victims[i].st.ID()]
				fj := e.FirstVisible[victims[j].st.ID()]
				if fi != fj {
					return fi < fj
				}
				return victims[i].st.ID() < victims[j].st.ID()
			})
			victims = victims[:sc.firm.MaxStoresPerCase]
		}
		c := e.buildCaseDomains(sc.firm, sc.brand, day, victims)
		filed = append(filed, c)
		for _, v := range victims {
			v.st.MarkSeized(v.dom, day)
			if e.OnSeize != nil {
				e.OnSeize(v.dom, c)
			}
			// Only a seizure that hit the store's live domain hurts it and
			// triggers a reaction; a stale domain was already abandoned.
			if v.st.CurrentDomain(day) == v.dom {
				react := day + simclock.Day(v.st.Dep.Campaign.ReactionDays)
				e.pending = append(e.pending, reaction{day: react, st: v.st})
			}
		}
	}
	// Process due reactions.
	var rest []reaction
	for _, p := range e.pending {
		if p.day > day {
			rest = append(rest, p)
			continue
		}
		if newDom := p.st.MoveToNextDomain(day); newDom != "" {
			// The store starts a fresh observation clock on its new domain.
			e.FirstVisible[p.st.ID()] = day
			if e.OnReact != nil {
				e.OnReact(p.st, newDom, day)
			}
		}
	}
	e.pending = rest
	return filed
}

// Cases returns every case filed so far (historical first).
func (e *SeizureEngine) Cases() []*CourtCase { return e.cases }

// CasesByFirm groups filed cases per firm key.
func (e *SeizureEngine) CasesByFirm() map[string][]*CourtCase {
	out := make(map[string][]*CourtCase)
	for _, c := range e.cases {
		out[c.Firm.Key] = append(out[c.Firm.Key], c)
	}
	return out
}

// MarkVisible records the first day a store's current domain was observed
// in poisoned search results, arming the firms' age eligibility. Calling it
// again does not reset the clock.
func (e *SeizureEngine) MarkVisible(storeID string, day simclock.Day) {
	if _, seen := e.FirstVisible[storeID]; !seen {
		e.FirstVisible[storeID] = day
	}
}
