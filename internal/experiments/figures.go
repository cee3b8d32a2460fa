package experiments

import (
	"fmt"
	"strings"

	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// figure2Verticals are the four verticals the paper plots, chosen for
// their diversity in merchandise, campaigns and term methodology.
var figure2Verticals = []brands.Vertical{
	brands.Abercrombie, brands.BeatsByDre, brands.LouisVuitton, brands.Uggs,
}

// Figure2Result holds the stacked attribution series per vertical.
type Figure2Result struct {
	Panels []Figure2Panel
}

// Figure2Panel is one vertical's stacked-area data.
type Figure2Panel struct {
	Vertical        brands.Vertical
	ClassifiedShare float64 // fraction of PSR share attributed to campaigns
	Stack           *metrics.Stacked
	Penalized       metrics.Series
}

// Figure2 builds the attribution panels: the top campaigns per vertical,
// a "misc" bucket, the unknown remainder and the penalised share.
func Figure2(d *core.Dataset) *Figure2Result {
	res := &Figure2Result{}
	for _, v := range figure2Verticals {
		vo := d.Verticals[v]
		stack := vo.Attributed.TopLayers(6, "misc")
		var named, total float64
		for label, s := range vo.Attributed.Layers {
			total += s.Sum()
			if label != core.Unknown {
				named += s.Sum()
			}
		}
		share := 0.0
		if total > 0 {
			share = named / total
		}
		res.Panels = append(res.Panels, Figure2Panel{
			Vertical:        v,
			ClassifiedShare: share,
			Stack:           stack,
			Penalized:       vo.PenalizedPct,
		})
	}
	return res
}

// String renders each panel as labelled sparkline layers (the stacked area
// plot, linearised), matching the paper's reading: which campaigns hold
// which share of the vertical's results over time, and how much of the
// poisoning is penalised.
func (r *Figure2Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 2: PSRs attributed to campaigns per vertical (paper classified shares: Abercrombie 64.2%, Beats 62.2%, Louis Vuitton 66%, Uggs 58%)\n")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "\n[%s] classified share of PSRs: %.1f%%\n", p.Vertical, 100*p.ClassifiedShare)
		for _, label := range p.Stack.Labels {
			s := p.Stack.Layers[label]
			if s.Sum() == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-14s %s  (mean %.2f%% of slots)\n",
				label, metrics.Spark(s, 48).Glyphs, s.Mean())
		}
		fmt.Fprintf(&b, "  %-14s %s  (mean %.2f%% of slots)\n",
			"penalized", metrics.Spark(p.Penalized, 48).Glyphs, p.Penalized.Mean())
	}
	return b.String()
}

// Figure3Result holds the per-vertical poisoning sparklines.
type Figure3Result struct {
	Rows []Figure3Row
}

// Figure3Row is one vertical's pair of sparklines.
type Figure3Row struct {
	Vertical brands.Vertical
	Top10    metrics.Sparkline
	Top100   metrics.Sparkline
}

// Figure3 computes the study-window poisoning-rate summaries.
func Figure3(d *core.Dataset) *Figure3Result {
	res := &Figure3Result{}
	for _, v := range brands.All() {
		vo := d.Verticals[v]
		res.Rows = append(res.Rows, Figure3Row{
			Vertical: v,
			Top10:    metrics.Spark(vo.Top10PoisonedPct[:d.StudyDays], 24),
			Top100:   metrics.Spark(vo.Top100PoisonedPct[:d.StudyDays], 24),
		})
	}
	return res
}

// String implements fmt.Stringer in the paper's min/sparkline/max layout.
func (r *Figure3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: % of search results poisoned per vertical (left: top 10, right: top 100; min/max over the study)\n\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s  top10 %s   top100 %s\n",
			row.Vertical, row.Top10, row.Top100)
	}
	return b.String()
}

// figure4Campaigns are the campaigns of Figure 4.
var figure4Campaigns = []string{"KEY", "MOONKIS", "VERA", "PHP?P="}

// Figure4Result correlates PSR visibility with order activity.
type Figure4Result struct {
	Panels []Figure4Panel
}

// Figure4Panel is one campaign's column of graphs.
type Figure4Panel struct {
	Campaign    string
	Volume      metrics.Series // cumulative sampled order growth
	Rate        metrics.Series // estimated orders/day
	Top100      metrics.Series // PSRs/day across the top 100
	Top10       metrics.Series
	Labeled     metrics.Series // labeled PSRs/day (dark bars in the paper)
	VolumeTotal float64
	RateMax     float64
}

// Figure4 aggregates the purchase-pair estimates of each campaign's
// representative (sampled) stores against its PSR prevalence.
func Figure4(d *core.Dataset) *Figure4Result {
	w := d.World()
	res := &Figure4Result{}
	for _, name := range figure4Campaigns {
		co := d.Campaigns[name]
		p := Figure4Panel{Campaign: name,
			Volume:  metrics.NewSeries(d.SimDays),
			Rate:    metrics.NewSeries(d.SimDays),
			Top100:  metrics.NewSeries(d.SimDays),
			Top10:   metrics.NewSeries(d.SimDays),
			Labeled: metrics.NewSeries(d.SimDays),
		}
		if co != nil {
			copy(p.Top100, co.PSRTop100)
			copy(p.Top10, co.PSRTop10)
			copy(p.Labeled, co.LabeledPSRs)
		}
		// Representative stores: the campaign's sampled stores.
		var spec string
		for _, s := range w.Specs {
			if s.Name == name {
				spec = s.Key()
			}
		}
		for _, st := range w.CampaignStores(spec) {
			if os, ok := d.SampledOrders[st.ID()]; ok {
				for day := 0; day < d.SimDays; day++ {
					p.Rate[day] += os.Rates.At(day)
					p.Volume[day] += os.Volume.At(day)
				}
			}
		}
		p.VolumeTotal = p.Volume.Max()
		p.RateMax = p.Rate.Max()
		res.Panels = append(res.Panels, p)
	}
	return res
}

// String implements fmt.Stringer.
func (r *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: store visibility in PSRs vs order activity (paper volume maxima: KEY 132, MOONKIS 1273, VERA 1742, PHP?P= 2107)\n")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "\n[%s]\n", p.Campaign)
		fmt.Fprintf(&b, "  volume  %s  (max %.0f cumulative orders at sampled stores)\n",
			metrics.Spark(p.Volume, 48).Glyphs, p.VolumeTotal)
		fmt.Fprintf(&b, "  rate    %s  (max %.2f orders/day)\n",
			metrics.Spark(p.Rate, 48).Glyphs, p.RateMax)
		fmt.Fprintf(&b, "  top100  %s  (max %.0f PSRs/day)\n",
			metrics.Spark(p.Top100, 48).Glyphs, p.Top100.Max())
		fmt.Fprintf(&b, "  top10   %s  (max %.0f PSRs/day)\n",
			metrics.Spark(p.Top10, 48).Glyphs, p.Top10.Max())
		fmt.Fprintf(&b, "  labeled %s  (max %.0f labeled PSRs/day)\n",
			metrics.Spark(p.Labeled, 48).Glyphs, p.Labeled.Max())
	}
	return b.String()
}

// Figure5Result is the coco*.com case study.
type Figure5Result struct {
	StoreID     string
	Domains     []string
	Epochs      []EpochInfo
	Top100      metrics.Series
	Top10       metrics.Series
	Traffic     metrics.Series // daily HTML pages fetched by users
	Visits      metrics.Series
	Rate        metrics.Series
	Volume      metrics.Series
	SeizedDay   simclock.Day // day the abandoned first domain was seized (-1 if none)
	Conversion  float64      // orders per visit
	PagesPerVis float64
	// ReferrerCoverage is the fraction of AWStats referrer doorways our
	// crawl had independently observed (paper: 47.7%).
	ReferrerCoverage float64
	TotalVisits      int
}

// EpochInfo is one domain epoch of the rotating store.
type EpochInfo struct {
	Domain string
	From   simclock.Day
}

// Figure5 assembles the BIGLOVE Chanel-store case study from the watched
// PSR series, the store's (scraped) analytics and the purchase-pair
// estimates.
func Figure5(d *core.Dataset) *Figure5Result {
	w := d.World()
	stores := w.CampaignStores("biglove")
	if len(stores) == 0 {
		return &Figure5Result{SeizedDay: -1}
	}
	st := stores[0] // the scripted coco*.com store
	res := &Figure5Result{StoreID: st.ID(), SeizedDay: -1}
	for _, dom := range st.Dep.Domains {
		if strings.HasPrefix(dom, "coco") && strings.HasSuffix(dom, ".com") {
			res.Domains = append(res.Domains, dom)
		}
	}
	for _, e := range st.Epochs() {
		res.Epochs = append(res.Epochs, EpochInfo{Domain: e.Domain, From: e.From})
	}
	if ws := d.WatchedPSRs[st.ID()]; ws != nil {
		res.Top100 = ws.Top100
		res.Top10 = ws.Top10
	}
	snap := st.Snapshot()
	res.Traffic = snap.PageViews
	res.Visits = snap.Visits
	if os := d.SampledOrders[st.ID()]; os != nil {
		res.Rate = os.Rates
		res.Volume = os.Volume
	}
	// SeizedDay: the first coco domain's seizure, the event of §5.2.3.
	if len(res.Domains) > 0 {
		if day, ok := st.SeizedOn(res.Domains[0]); ok {
			res.SeizedDay = day
		}
	}
	visits := metrics.Series(snap.Visits).Sum()
	if visits > 0 {
		res.Conversion = metrics.Series(snap.Orders).Sum() / visits
		res.PagesPerVis = metrics.Series(snap.PageViews).Sum() / visits
	}
	res.TotalVisits = int(visits)
	// Referrer coverage: which of the store's referrer doorways did the
	// crawl independently see?
	var seen, total int
	for dom := range snap.Referrers {
		total++
		if _, ok := d.DoorFirstSeen[dom]; ok {
			seen++
		}
	}
	if total > 0 {
		res.ReferrerCoverage = float64(seen) / float64(total)
	}
	return res
}

// String implements fmt.Stringer.
func (r *Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: the BIGLOVE counterfeit Chanel store rotating across coco*.com domains\n")
	fmt.Fprintf(&b, "store %s; scripted domains: %s\n", r.StoreID, strings.Join(r.Domains, " -> "))
	for _, e := range r.Epochs {
		fmt.Fprintf(&b, "  epoch: %-28s from day %d\n", e.Domain, e.From)
	}
	if r.SeizedDay >= 0 {
		abandoned := false
		for _, e := range r.Epochs {
			if len(r.Domains) > 0 && e.Domain != r.Domains[0] && e.From <= r.SeizedDay {
				// Some later epoch had already started by the seizure day.
				for _, e2 := range r.Epochs {
					if e2.Domain == r.Domains[0] && e2.From < e.From && e.From <= r.SeizedDay {
						abandoned = true
					}
				}
			}
		}
		if abandoned {
			fmt.Fprintf(&b, "  %s seized on day %d - after the campaign had already rotated away (no downtime)\n", r.Domains[0], r.SeizedDay)
		} else {
			fmt.Fprintf(&b, "  %s seized on day %d while live; the campaign re-pointed doorways to the next domain\n", r.Domains[0], r.SeizedDay)
		}
	}
	fmt.Fprintf(&b, "  top100  %s (max %.0f PSRs/day)\n", metrics.Spark(r.Top100, 48).Glyphs, r.Top100.Max())
	fmt.Fprintf(&b, "  top10   %s (max %.0f PSRs/day)\n", metrics.Spark(r.Top10, 48).Glyphs, r.Top10.Max())
	fmt.Fprintf(&b, "  traffic %s (max %.0f pages/day)\n", metrics.Spark(r.Traffic, 48).Glyphs, r.Traffic.Max())
	fmt.Fprintf(&b, "  volume  %s (max %.0f orders)\n", metrics.Spark(r.Volume, 48).Glyphs, r.Volume.Max())
	fmt.Fprintf(&b, "  rate    %s (max %.1f orders/day)\n", metrics.Spark(r.Rate, 48).Glyphs, r.Rate.Max())
	fmt.Fprintf(&b, "conversion: %.2f%% of %d visits (paper: 0.7%%); %.1f pages/visit (paper: 5.6); referrer doorways covered by crawl: %.1f%% (paper: 47.7%%)\n",
		100*r.Conversion, r.TotalVisits, r.PagesPerVis, 100*r.ReferrerCoverage)
	return b.String()
}

// Figure6Result is the PHP?P= seizure-reaction case study.
type Figure6Result struct {
	Stores []Figure6Store
}

// Figure6Store is one of the four international stores.
type Figure6Store struct {
	StoreID   string
	Label     string
	Samples   []OrderSample
	SeizedDay simclock.Day // -1 if never seized
	ReactDay  simclock.Day // -1 if no reaction observed
}

// OrderSample is one purchase-pair observation.
type OrderSample struct {
	Day     simclock.Day
	OrderNo int64
}

// Figure6 collects the order-number samples of the scripted PHP?P= stores
// alongside their seizure and reaction days.
func Figure6(d *core.Dataset) *Figure6Result {
	w := d.World()
	res := &Figure6Result{}
	stores := w.CampaignStores("php?p=")
	n := 4
	if len(stores) < n {
		n = len(stores)
	}
	for i := 0; i < n; i++ {
		st := stores[i]
		fs := Figure6Store{StoreID: st.ID(), Label: st.Dep.Label(), SeizedDay: -1, ReactDay: -1}
		if s := w.Sampler.Series(st.ID()); s != nil {
			for _, sm := range s.Samples {
				fs.Samples = append(fs.Samples, OrderSample{Day: sm.Day, OrderNo: sm.OrderNo})
			}
		}
		for _, sz := range d.Seizures {
			if sz.StoreID == st.ID() && fs.SeizedDay < 0 {
				fs.SeizedDay = sz.Day
			}
		}
		for _, rc := range d.Reactions {
			if rc.StoreID == st.ID() && fs.SeizedDay >= 0 && rc.Day >= fs.SeizedDay && fs.ReactDay < 0 {
				fs.ReactDay = rc.Day
			}
		}
		res.Stores = append(res.Stores, fs)
	}
	return res
}

// String implements fmt.Stringer.
func (r *Figure6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: PHP?P= order numbers at four international stores (paper: abercrombie[uk] seized 2014-02-09; doorways re-pointed within 24h)\n")
	for _, fs := range r.Stores {
		fmt.Fprintf(&b, "\n[%s] (%s)\n", fs.Label, fs.StoreID)
		if fs.SeizedDay >= 0 {
			fmt.Fprintf(&b, "  seized on day %d", fs.SeizedDay)
			if fs.ReactDay >= 0 {
				fmt.Fprintf(&b, "; campaign re-pointed doorways on day %d (+%d days)",
					fs.ReactDay, fs.ReactDay-fs.SeizedDay)
			}
			b.WriteByte('\n')
		}
		var prev int64
		for _, sm := range fs.Samples {
			delta := ""
			if prev != 0 {
				delta = fmt.Sprintf("  (+%d)", sm.OrderNo-prev)
			}
			fmt.Fprintf(&b, "  day %3d: order #%d%s\n", sm.Day, sm.OrderNo, delta)
			prev = sm.OrderNo
		}
	}
	return b.String()
}
