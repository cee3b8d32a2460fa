package experiments

import (
	"fmt"

	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/intervention"
)

// Table1Result reproduces Table 1: per-vertical PSR, doorway, store and
// campaign counts over the crawl window.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one vertical's line.
type Table1Row struct {
	Vertical  brands.Vertical
	Starred   bool // KEY does not target this vertical (suggest-seeded)
	PSRs      int64
	Doorways  int
	Stores    int
	Campaigns int
}

// Table1 computes the verticals breakdown.
func Table1(d *core.Dataset) *Table1Result {
	res := &Table1Result{}
	for _, v := range brands.All() {
		vo := d.Verticals[v]
		res.Rows = append(res.Rows, Table1Row{
			Vertical:  v,
			Starred:   v.SuggestSeeded(),
			PSRs:      vo.PSRObservations,
			Doorways:  len(vo.DoorwaysSeen),
			Stores:    len(vo.StoresSeen),
			Campaigns: len(vo.CampaignsSeen),
		})
	}
	return res
}

// String implements fmt.Stringer in the paper's layout.
func (r *Table1Result) String() string {
	t := &table{header: []string{"Vertical", "# PSRs", "# Doorways", "# Stores", "# Campaigns"}}
	for _, row := range r.Rows {
		name := row.Vertical.String()
		if row.Starred {
			name += "*"
		}
		t.add(name, commas(row.PSRs), commas(int64(row.Doorways)),
			commas(int64(row.Stores)), fmt.Sprintf("%d", row.Campaigns))
	}
	return "Table 1: verticals monitored (paper: 2,773,044 PSRs / 27,008 doorways / 7,484 stores / 52 campaigns)\n" +
		"(* = vertical not targeted by the KEY campaign)\n\n" + t.String()
}

// Table2Result reproduces Table 2: per-campaign infrastructure and peak
// poisoning duration, for campaigns above the doorway cutoff.
type Table2Result struct {
	Rows   []Table2Row
	Cutoff int
}

// Table2Row is one campaign's line.
type Table2Row struct {
	Name     string
	Doorways int
	Stores   int
	Brands   int
	PeakDays int
}

// Table2 computes the classified-campaign table. The doorway cutoff scales
// with the world (the paper used 25 at full scale).
func Table2(d *core.Dataset) *Table2Result {
	w := d.World()
	cutoff := int(25 * w.Cfg.Scale)
	if cutoff < 2 {
		cutoff = 2
	}
	res := &Table2Result{Cutoff: cutoff}
	for _, name := range sortedKeys(d.Campaigns) {
		co := d.Campaigns[name]
		if len(co.Doorways) < cutoff {
			continue
		}
		// Brands abused: distinct brands among the stores attributed to the
		// campaign.
		brandSet := make(map[string]bool)
		for dom := range co.StoresSeen {
			if st, ok := w.StoreByDomain(dom); ok {
				brandSet[st.Dep.Brand] = true
			}
		}
		_, _, peak := co.PSRTop100.PeakRange(0.6)
		res.Rows = append(res.Rows, Table2Row{
			Name:     name,
			Doorways: len(co.Doorways),
			Stores:   len(co.StoresSeen),
			Brands:   len(brandSet),
			PeakDays: peak,
		})
	}
	return res
}

// String implements fmt.Stringer.
func (r *Table2Result) String() string {
	t := &table{header: []string{"Campaign", "# Doorways", "# Stores", "# Brands", "Peak (days)"}}
	for _, row := range r.Rows {
		t.add(row.Name, fmt.Sprintf("%d", row.Doorways), fmt.Sprintf("%d", row.Stores),
			fmt.Sprintf("%d", row.Brands), fmt.Sprintf("%d", row.PeakDays))
	}
	return fmt.Sprintf("Table 2: classified campaigns with %d+ observed doorways (peak = shortest span holding 60%%+ of the campaign's PSRs; paper mean 51.3 days)\n\n%s",
		r.Cutoff, t.String())
}

// Table3Result reproduces Table 3: seizure activity per firm.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one firm's line.
type Table3Row struct {
	Firm             string
	Cases            int
	Brands           int
	DomainsSeized    int
	ObservedStores   int
	ClassifiedStores int
	Campaigns        int
}

// Table3 computes the per-firm seizure summary from the court cases and
// the crawl-observed subset.
func Table3(d *core.Dataset) *Table3Result {
	w := d.World()
	res := &Table3Result{}
	byFirm := w.Seizure.CasesByFirm()
	for _, firm := range intervention.Firms() {
		cases := byFirm[firm.Key]
		row := Table3Row{Firm: firm.Name, Cases: len(cases)}
		brandSet := make(map[string]bool)
		var domains int
		for _, c := range cases {
			brandSet[c.Brand] = true
			domains += len(c.Domains)
		}
		row.Brands = len(brandSet)
		row.DomainsSeized = domains
		campaigns := make(map[string]bool)
		seenStores := make(map[string]bool)
		for _, s := range d.Seizures {
			if s.FirmKey != firm.Key || !s.SeenInPSRs || s.StoreID == "" {
				continue
			}
			if seenStores[s.Domain] {
				continue
			}
			seenStores[s.Domain] = true
			row.ObservedStores++
			// "Classified": one of the store's domains was attributed to a
			// named campaign by the classifier.
			if name := attributedName(d, s.Domain); name != "" {
				row.ClassifiedStores++
				campaigns[name] = true
			}
		}
		row.Campaigns = len(campaigns)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// attributedName looks up which named campaign the crawl attributed a store
// domain to, if any.
func attributedName(d *core.Dataset, storeDomain string) string {
	for name, co := range d.Campaigns {
		if co.StoresSeen[storeDomain] {
			return name
		}
	}
	return ""
}

// String implements fmt.Stringer.
func (r *Table3Result) String() string {
	t := &table{header: []string{"Company", "# Cases", "# Brands", "# Seized",
		"# Stores", "# Classified", "# Campaigns"}}
	for _, row := range r.Rows {
		t.add(row.Firm, fmt.Sprintf("%d", row.Cases), fmt.Sprintf("%d", row.Brands),
			commas(int64(row.DomainsSeized)), fmt.Sprintf("%d", row.ObservedStores),
			fmt.Sprintf("%d", row.ClassifiedStores), fmt.Sprintf("%d", row.Campaigns))
	}
	return "Table 3: domain seizures initiated by brand holders, Feb 2012 - Jul 2014\n" +
		"(paper: GBC 69 cases / 17 brands / 31,819 seized / 214 stores / 40 classified / 17 campaigns;\n" +
		"        SMGPA 47 / 11 / 8,056 / 76 / 20 / 12)\n\n" + t.String()
}
