// Package intervention implements the two intervention families the paper
// evaluates: search-engine actions (demotion and "This site may be hacked"
// labeling, §5.2) and brand-holder domain seizures executed through
// brand-protection firms' court cases (§5.3), together with the campaigns'
// observed countermeasure — re-pointing doorways at backup store domains
// within days.
package intervention

import (
	"fmt"

	"repro/internal/simclock"
)

// Firm is a brand-protection company filing seizure cases on behalf of
// brand-holder clients.
type Firm struct {
	Name string
	Key  string
	// Clients maps each represented brand to the number of court cases the
	// firm files for it across the seizure window. The totals reproduce
	// Table 3 (GBC: 69 cases / 17 brands; SMGPA: 47 / 11) and §5.3's
	// cadence observations (Uggs bi-weekly, Chanel bi-weekly, Oakley
	// monthly; most brands far less often).
	Clients map[string]int
	// DomainsPerCase is the mean number of domains listed per case (bulk
	// filings amortise legal cost; GBC ≈ 460/case, SMGPA ≈ 170/case).
	DomainsPerCase int
	// MinStoreAgeDays is how long a store domain must have been visible
	// before the firm's sweep will include it (investigation and docket
	// latency; drives the §5.3.2 lifetime numbers).
	MinStoreAgeDays int
	// InvestigationLagDays is how stale the firm's view of a store is when
	// the court order finally issues: the seizure hits the domain the firm
	// observed then, which a proactively rotating campaign may already
	// have abandoned (the §5.2.3 coco*.com episode).
	InvestigationLagDays int
	// MaxStoresPerCase caps how many live stores a single filing names;
	// the rest of the bulk list is domains outside the crawl's view. GBC's
	// bigger filings are why it accounts for the larger observed share.
	MaxStoresPerCase int
}

// Firms returns the two firms of Table 3.
func Firms() []*Firm {
	return []*Firm{
		{
			Name: "Greer, Burns & Crain", Key: "gbc",
			Clients: map[string]int{
				"Uggs": 19, "Chanel": 18, "Oakley": 6, "Louis Vuitton": 4,
				"Moncler": 3, "Abercrombie": 2, "Tiffany": 2, "Nike": 2,
				"Ralph Lauren": 2, "Woolrich": 2, "Isabel Marant": 2,
				"Rolex": 2, "Adidas": 1, "Ed Hardy": 1, "Hollister": 1,
				"Beats By Dre": 1, "Ray-Ban": 1,
			},
			DomainsPerCase:       460,
			MinStoreAgeDays:      44,
			InvestigationLagDays: 16,
			MaxStoresPerCase:     9,
		},
		{
			Name: "SMGPA", Key: "smgpa",
			Clients: map[string]int{
				"Louis Vuitton": 8, "Uggs": 7, "Moncler": 6,
				"Isabel Marant": 5, "Nike": 4, "Beats By Dre": 4,
				"Tiffany": 3, "Woolrich": 3, "Ed Hardy": 3, "Adidas": 2,
				"Clarisonic": 2,
			},
			DomainsPerCase:       170,
			MinStoreAgeDays:      36,
			InvestigationLagDays: 12,
			MaxStoresPerCase:     3,
		},
	}
}

// ReactiveFirms returns the counterfactual firms of the abl-reactive
// ablation: the same clients pursued reactively — small frequent filings
// with short investigation latency — instead of bulk periodic sweeps. The
// §5.3 discussion argues the current legal process cannot work this way;
// the ablation measures what it would buy.
func ReactiveFirms() []*Firm {
	out := Firms()
	for _, f := range out {
		for b, n := range f.Clients {
			f.Clients[b] = n * 5 // weekly-scale filings
		}
		f.DomainsPerCase /= 5
		if f.DomainsPerCase < 5 {
			f.DomainsPerCase = 5
		}
		f.MinStoreAgeDays = 10
		f.InvestigationLagDays = 3
	}
	return out
}

// CaseSchedule lays the firm's cases for one brand out over the seizure
// window. Brands pursued aggressively follow the cadences §5.3 observed —
// bi-weekly filings for 15+ case clients (Uggs, Chanel), monthly for 5-14
// (Oakley) — anchored at the end of the window, so their sweeps overlap the
// crawl; occasional clients are spread across the whole window. Days are
// expressed relative to the *study* window (negative = pre-study).
func (f *Firm) CaseSchedule(brand string, seizure, study simclock.Window) []simclock.Day {
	n := f.Clients[brand]
	if n == 0 {
		return nil
	}
	first := study.DayOf(seizure.Start)
	last := study.DayOf(seizure.End)
	span := int(last - first)
	var cadence int
	switch {
	case n >= 15:
		cadence = 14
	case n >= 5:
		cadence = 30
	default:
		cadence = span / n
	}
	phase := int(hashString(f.Key+brand) % uint64(cadence))
	start := int(last) - (n-1)*cadence - phase
	if start < int(first) {
		start = int(first)
	}
	out := make([]simclock.Day, 0, n)
	for i := 0; i < n; i++ {
		d := simclock.Day(start + i*cadence)
		if d > last {
			d = last
		}
		out = append(out, d)
	}
	return out
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// CourtCase is one bulk seizure filing.
type CourtCase struct {
	ID    string
	Firm  *Firm
	Brand string
	Day   simclock.Day // relative to the study window; negative = pre-study
	// Domains is every domain listed in the case documents, including the
	// long tail outside our crawl's view.
	Domains []string
	// ObservedStoreIDs are the stores in our world whose live domain this
	// case seized.
	ObservedStoreIDs []string
}

// NewCaseID formats a docket-style identifier.
func NewCaseID(firmKey string, year, seq int) string {
	return fmt.Sprintf("%02d-cv-%s-%04d", year%100, firmKey, seq)
}
