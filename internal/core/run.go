package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/brands"
	"repro/internal/crawler"
	"repro/internal/htmlparse"
	"repro/internal/parallel"
	"repro/internal/purchase"
	"repro/internal/searchsim"
	"repro/internal/simclock"
	"repro/internal/store"
	"repro/internal/traffic"
)

// featuresOf extracts classifier features from a page.
func featuresOf(body string) []string { return htmlparse.Triplets(body) }

// Run executes the whole study: every simulation day the world advances,
// interventions fire, demand flows, and (inside the crawl window) the
// measurement pipeline observes it. It returns the completed dataset.
func (w *World) Run() *Dataset {
	//sslint:ignore errflow context.Background never cancels and cancellation is RunContext's only error source
	d, _ := w.RunContext(context.Background())
	return d
}

// NextDay is the resume cursor: the first simulation day not yet run.
// Days [0, NextDay) are fully committed.
func (w *World) NextDay() int { return int(w.nextDay) }

// TargetDays is how many days RunContext will execute in total: the
// simulation window, shortened by Config.MaxDays when a cap is set.
func (w *World) TargetDays() int {
	days := w.Sim.Days()
	if w.Cfg.MaxDays > 0 && w.Cfg.MaxDays < days {
		return w.Cfg.MaxDays
	}
	return days
}

// RunContext is Run with cooperative cancellation. The context is checked
// at each day boundary — never mid-day, so the dataset is always coherent:
// every day in [0, DaysRun) is fully committed and no later day has begun.
// On cancellation it finalizes and returns the partial dataset alongside
// ctx's error; Dataset.DaysRun (and, under fault injection, the coverage
// mask) tell downstream consumers how much of the window was measured.
//
// The world keeps a resume cursor: a later RunContext call on the same
// world continues from the first unrun day, so a cancelled study can be
// resumed to completion.
func (w *World) RunContext(ctx context.Context) (*Dataset, error) {
	for int(w.nextDay) < w.TargetDays() {
		if err := ctx.Err(); err != nil {
			w.Finalize()
			w.Data.DaysRun = int(w.nextDay)
			return w.Data, err
		}
		d := w.nextDay
		if w.OnDayStart != nil {
			w.OnDayStart(d)
		}
		w.RunDay(d)
		// Advance the cursor before the day-boundary hook so a snapshot
		// taken inside it records day d as committed.
		w.nextDay = d + 1
		if w.OnDayEnd != nil {
			w.OnDayEnd(d)
		}
	}
	w.Finalize()
	w.Data.DaysRun = int(w.nextDay)
	return w.Data, nil
}

// RunDay advances the world one day.
//
// The day pipeline is split into an observe phase and a sequential commit
// phase. The observe phase runs against a frozen world — nothing it reads
// is mutated until it has finished — in three steps:
//
//   - collect: each vertical, in parallel, lists the unique domains of its
//     SERPs in first-slot order, each with a sample URL;
//   - check: one crawler fan-out over the union of those domains, one job
//     per domain, which checks the domain once for each vertical that saw
//     it, in vertical order, with that vertical's URL;
//   - attribute: each vertical, in parallel, walks its SERPs again and
//     turns the verdicts into observations (cloaking, attribution,
//     per-vertical tallies).
//
// Side effects on state shared across verticals (the labeler, first-seen
// maps, the seizure engine's visibility clocks, per-campaign series) are
// recorded as per-vertical event lists and merged afterwards in fixed
// vertical order. Every domain sees the same sequence of crawler lookups
// at any worker count, so a study produces bit-identical output at any
// GOMAXPROCS or worker count, with or without faults.
func (w *World) RunDay(d simclock.Day) {
	daySpan := w.stDay.Start(int(d), "")
	defer daySpan.End()
	w.cDays.Inc()

	w.Engine.Advance(d)
	w.rotateStores(d)
	w.Seizure.Tick(d)

	inStudy := int(d) < w.Study.Days()
	if w.Faults.OutageDay(d) {
		// Whole-day crawler outage: the observe phase skips exactly like
		// the paper's real coverage gaps. The world does not pause for it —
		// users click, interventions fire, campaigns rotate — only the
		// measurement goes dark, and the dataset's coverage mask records
		// the gap so downstream numbers are loss-aware.
		w.Data.recordOutage(d)
		w.cOutages.Inc()
	} else {
		verticals := brands.All()
		obs := w.dayObs(len(verticals))
		obsSpan := w.stObserve.Start(int(d), "")
		parallel.ForEachObserved(w.Cfg.ObserveWorkers, len(verticals), func(i int) {
			w.collectVertical(obs[i], verticals[i], d)
		}, w.obsPool)
		w.Crawler.CheckDomains(w.dayJobs(obs), d)
		parallel.ForEachObserved(w.Cfg.ObserveWorkers, len(verticals), func(i int) {
			w.attributeVertical(obs[i], d, inStudy)
		}, w.obsPool)
		obsSpan.End()
		commitSpan := w.stCommit.Start(int(d), "")
		for _, o := range obs {
			w.commitObservation(o, d, inStudy)
		}
		commitSpan.End()
		if w.Faults != nil || w.tel != nil {
			var covered, lost int
			for _, o := range obs {
				covered += o.slots
				lost += o.lostSlots
			}
			w.cSlots.Add(int64(covered))
			w.cLostSlots.Add(int64(lost))
			if w.Faults != nil {
				w.Data.recordCoverage(d, covered, covered+lost)
			}
		}
	}

	w.Labeler.Tick(d, w.Engine, w.Specs, w.Deps)
	w.applyTraffic(d)
	if inStudy {
		w.Sampler.Visit(d, w.purchaseTargets())
		neu, tot := w.Engine.ChurnToday()
		fpSeriesAdd(&w.Data.fpIncr, pfxChurnNew, w.Data.ChurnNew, int(d), float64(neu))
		fpSeriesAdd(&w.Data.fpIncr, pfxChurnTotal, w.Data.ChurnTotal, int(d), float64(tot))
	}
}

// rotateStores applies proactive domain rotation for campaigns that use it
// (§5.2.3): during the campaign's peak, stores move to a fresh domain every
// RotationDays.
func (w *World) rotateStores(d simclock.Day) {
	for _, st := range w.Stores {
		spec := st.Dep.Campaign
		if spec.RotationDays == 0 || d < spec.PeakFrom {
			continue
		}
		epochs := st.Epochs()
		last := epochs[len(epochs)-1].From
		if last < spec.PeakFrom {
			last = spec.PeakFrom
		}
		if int(d-last) >= spec.RotationDays && !st.Dark(d) {
			if newDom := st.MoveToNextDomain(d); newDom != "" {
				w.Data.recordReaction(st, newDom, d)
			}
		}
	}
}

// labelerEvent is one Labeler.Observe call deferred to the commit phase.
// The labeler's root-dominance arming is sensitive to observation order, so
// events are replayed exactly as the sequential pipeline would have issued
// them: vertical by vertical, in slot order.
type labelerEvent struct {
	domain string
	root   bool
}

// campDayAgg accumulates one vertical's daily contribution to a named
// campaign's shared observation bucket.
type campDayAgg struct {
	top100, top10, labeled int
	doorways               map[string]bool
	stores                 map[string]bool
}

// watchedAgg accumulates daily PSR counts for one watched case-study store.
type watchedAgg struct {
	top100, top10 int
}

// dayObservation is one vertical's output of the read-only observe phase,
// plus the scratch buffers the phase reuses day over day. Everything here
// is owned by a single goroutine during the collect and attribute steps;
// in the check step the crawl pool writes verdicts, each slot from the one
// job that owns its domain. The commit phase merges the shared-state
// portions in fixed vertical order.
type dayObservation struct {
	vertical brands.Vertical
	vo       *VerticalObs

	// slot holds, for each of the vertical's slots in EachSlot order, -1
	// if its term was rate-limited away; otherwise collect stores the
	// slot's domain ID and dayJobs replaces it with the domain's position
	// in the vertical's list of unique domains. That list, in first-slot
	// order, is urls (each domain's sample URL, from slotURL) and job (its
	// job in the day's crawler job list); the check step writes each
	// domain's verdict into verdicts at its position.
	slot     []int32
	slotURL  []string
	urls     []string
	job      []int32
	verdicts []crawler.Verdict

	// per-vertical tallies (committed to vo directly by the observe phase —
	// each VerticalObs is touched by exactly one goroutine).
	slots, top10Slots             int
	top100Poisoned, top10Poisoned int
	penalized                     int
	attributed                    map[string]int

	// lostSlots counts slots the crawl could not observe this day: their
	// term's SERP was rate-limited away, or every fetch for the domain
	// failed (Unknown verdict). Lost slots are excluded from both the
	// numerators and denominators of the poisoning percentages — an
	// unobserved slot is missing data, not a clean result — and feed the
	// dataset's per-day coverage.
	lostSlots int
	// limitedTerms flags this vertical's rate-limited terms for the day
	// (nil when faults are off — the zero-cost path); limitedScratch is its
	// reusable backing array.
	limitedTerms   []bool
	limitedScratch []bool

	// deferred shared-state effects, replayed by the commit phase.
	labelerEvents []labelerEvent
	doorNew       map[string]bool // doorway domains not yet in DoorFirstSeen
	storeNew      map[string]bool // store domains not yet in StoreFirstSeen
	visible       map[string]bool // store IDs whose domain surfaced in PSRs
	watched       map[string]*watchedAgg
	campaigns     map[string]*campDayAgg

	// fpDelta is this vertical's day-fingerprint contribution: atoms for
	// every VerticalObs mutation the observe phase makes, summed privately
	// and folded into Dataset.fpIncr by the commit phase. Atom addition
	// commutes, so the fold is scheduling-independent by construction.
	fpDelta uint64
}

// dayObs returns the per-vertical observation records, allocated once and
// reused every day.
func (w *World) dayObs(n int) []*dayObservation {
	if w.obs == nil {
		w.obs = make([]*dayObservation, n)
		for i := range w.obs {
			w.obs[i] = &dayObservation{
				attributed: make(map[string]int, 16),
				doorNew:    make(map[string]bool),
				storeNew:   make(map[string]bool),
				visible:    make(map[string]bool),
				watched:    make(map[string]*watchedAgg),
				campaigns:  make(map[string]*campDayAgg),
			}
		}
	}
	return w.obs
}

// reset clears a record for a new day, keeping allocated capacity.
func (o *dayObservation) reset() {
	o.slot, o.slotURL = o.slot[:0], o.slotURL[:0]
	o.slots, o.top10Slots = 0, 0
	o.top100Poisoned, o.top10Poisoned = 0, 0
	o.penalized = 0
	o.lostSlots = 0
	clear(o.attributed)
	o.labelerEvents = o.labelerEvents[:0]
	clear(o.doorNew)
	clear(o.storeNew)
	clear(o.visible)
	clear(o.watched)
	clear(o.campaigns)
	o.fpDelta = 0
}

// limited reports whether a term's SERP was rate-limited away this day.
func (o *dayObservation) limited(term int) bool {
	return o.limitedTerms != nil && term < len(o.limitedTerms) && o.limitedTerms[term]
}

// collectVertical is the observe phase's collect step for one vertical: it
// records each slot's domain ID and URL, or -1 for a slot whose term was
// rate-limited away. It may run concurrently with other verticals' steps
// and writes only o.
func (w *World) collectVertical(o *dayObservation, v brands.Vertical, d simclock.Day) {
	o.reset()
	o.vertical = v
	o.vo = w.Data.Verticals[v]

	// Pre-compute the day's rate-limited terms (faults only): losing a term
	// means its SERP never arrives, so its slots contribute no fetches and
	// no observations, only lost coverage.
	o.limitedTerms = nil
	if w.Faults.Config().RateLimitRate > 0 {
		n := w.Cfg.TermsPerVertical
		if cap(o.limitedScratch) < n {
			o.limitedScratch = make([]bool, n)
		}
		o.limitedTerms = o.limitedScratch[:n]
		for t := 0; t < n; t++ {
			o.limitedTerms[t] = w.Faults.SerpRateLimited(int(v), t, d)
		}
	}

	w.Engine.EachSlot(v, func(term, _ int, s *searchsim.Slot) {
		id, url := s.ID, s.URL
		if o.limited(term) {
			id, url = -1, ""
		}
		o.slot = append(o.slot, id)
		o.slotURL = append(o.slotURL, url)
	})
}

// domainMark is dayJobs' scratch for one domain ID: stamp names the last
// vertical walk that saw the domain, pos its position in that vertical's
// list and job its job in the job list of that walk's day.
type domainMark struct {
	stamp    uint32
	pos, job int32
}

// dayJobs lists each vertical's unique domains from its collected slots,
// in first-slot order with each domain's first URL as its sample, and
// builds the check step's crawler jobs from them: one job per domain of
// the day's union, in vertical order and then first-slot order, which
// checks the domain once for each vertical that saw it, in vertical order,
// with that vertical's sample URL and into that vertical's verdict slot.
// The order is fixed by construction, so no sort is needed. Domains are
// deduplicated by ID through w.marks: each vertical walk takes a new
// stamp, so a mark older than the walk's is a domain the vertical has not
// listed yet, and one older than the day's first walk a domain with no job
// yet. Nothing is cleared; every buffer is re-sliced each day.
func (w *World) dayJobs(obs []*dayObservation) []crawler.DomainJob {
	names := w.Engine.Domains().Names()
	w.marks.Grow(len(names))
	before := w.stamp // every walk of today stamps above it
	w.jobs, w.jobNext = w.jobs[:0], w.jobNext[:0]
	total := 0
	for _, o := range obs {
		w.stamp++
		o.urls, o.job = o.urls[:0], o.job[:0]
		for k, id := range o.slot {
			if id < 0 {
				continue
			}
			m := w.marks.At(id)
			if m.stamp != w.stamp {
				if m.stamp <= before {
					m.job = int32(len(w.jobs))
					w.jobs = append(w.jobs, crawler.DomainJob{ID: id, Domain: names[id]})
					w.jobNext = append(w.jobNext, 0)
				}
				m.stamp, m.pos = w.stamp, int32(len(o.job))
				o.urls = append(o.urls, o.slotURL[k])
				o.job = append(o.job, m.job)
				w.jobNext[m.job]++
			}
			o.slot[k] = m.pos
		}
		total += len(o.job)
	}
	// Lay each job's checks out contiguously; jobNext turns from a count
	// into the job's next free check.
	w.checks = slices.Grow(w.checks[:0], total)[:total]
	var off int32
	for j := range w.jobs {
		n := w.jobNext[j]
		w.jobs[j].Checks = w.checks[off : off+n]
		w.jobNext[j] = off
		off += n
	}
	for _, o := range obs {
		o.verdicts = slices.Grow(o.verdicts[:0], len(o.job))[:len(o.job)]
		for i, j := range o.job {
			w.checks[w.jobNext[j]] = crawler.DomainCheck{URL: o.urls[i], Out: &o.verdicts[i]}
			w.jobNext[j]++
		}
	}
	return w.jobs
}

// attributeVertical is the observe phase's attribute step for one
// vertical: it walks the SERPs again, in collect's order, and records the
// observations into o, reading each slot's verdict at its domain's
// position. It may run
// concurrently with other verticals' steps and must not mutate state
// shared across verticals. Domain resolution goes through the vertical's
// private snapshot (see snapshot.go) rather than the global cross-vertical
// maps; the classifier's attribution cache and the HTML generator's memo
// are the only shared structures it touches, and both are thread-safe with
// order-independent results for a fixed day.
func (w *World) attributeVertical(o *dayObservation, d simclock.Day, inStudy bool) {
	v, vo := o.vertical, o.vo
	span := w.stObsVert.Start(int(d), v.String())
	defer span.End()
	snap := w.vertSnaps[v]

	next := 0
	w.Engine.EachSlot(v, func(_, rank int, s *searchsim.Slot) {
		pos := o.slot[next]
		next++
		if pos < 0 {
			o.lostSlots++
			return
		}
		ver := &o.verdicts[pos]
		if ver.Unknown && !ver.Cloaked {
			// Every fetch for this domain failed after retries (or its
			// breaker is open): the slot was not observed. It must not be
			// counted clean — the domain re-queues when it next surfaces.
			o.lostSlots++
			return
		}
		o.slots++
		if rank < 10 {
			o.top10Slots++
		}
		if !ver.Cloaked {
			return
		}
		o.top100Poisoned++
		if rank < 10 {
			o.top10Poisoned++
		}
		o.labelerEvents = append(o.labelerEvents, labelerEvent{s.Domain, s.Root})
		if _, seen := w.Data.DoorFirstSeen[s.Domain]; !seen {
			o.doorNew[s.Domain] = true
		}

		// Resolve and book the landing store.
		var attribution string
		if ver.IsStore && ver.StoreDomain != "" {
			if _, seen := w.Data.StoreFirstSeen[ver.StoreDomain]; !seen {
				o.storeNew[ver.StoreDomain] = true
			}
			if st, ok := snap.storeByDomain(ver.StoreDomain); ok {
				o.visible[st.ID()] = true
				if _, isWatched := snap.watched[st.ID()]; isWatched {
					wa := o.watched[st.ID()]
					if wa == nil {
						wa = &watchedAgg{}
						o.watched[st.ID()] = wa
					}
					wa.top100++
					if rank < 10 {
						wa.top10++
					}
				}
			}
			attribution = w.Attribute(ver.StoreDomain, d)
		}
		name := Unknown
		if attribution != "" {
			name = attribution
		}
		o.attributed[name]++

		// Penalised = labeled in results, or pointing at a seized store.
		pen := s.Labeled
		if !pen {
			if st := snap.doorTarget(s.Domain); st != nil {
				if _, gone := st.SeizedOn(st.CurrentDomain(d)); gone {
					pen = true
				}
			}
		}
		if pen {
			o.penalized++
		}

		if inStudy {
			vo.PSRObservations++
			o.fpDelta += snap.hPSR
			fpSetInsert(&o.fpDelta, snap.pfxDoorsSeen, vo.DoorwaysSeen, s.Domain)
			if s.Labeled {
				vo.LabeledObservations++
				o.fpDelta += snap.hLabeledObs
			}
			if _, hasLabel := w.Engine.LabeledOn(s.Domain); hasLabel {
				vo.LabelEligible++
				o.fpDelta += snap.hLabelEligible
			}
			if ver.IsStore && ver.StoreDomain != "" {
				fpSetInsert(&o.fpDelta, snap.pfxStoresSeen, vo.StoresSeen, ver.StoreDomain)
			}
			if name != Unknown {
				fpSetInsert(&o.fpDelta, snap.pfxCampsSeen, vo.CampaignsSeen, name)
				ca := o.campaigns[name]
				if ca == nil {
					ca = &campDayAgg{
						doorways: make(map[string]bool),
						stores:   make(map[string]bool),
					}
					o.campaigns[name] = ca
				}
				ca.top100++
				if rank < 10 {
					ca.top10++
				}
				if s.Labeled {
					ca.labeled++
				}
				ca.doorways[s.Domain] = true
				if ver.StoreDomain != "" {
					ca.stores[ver.StoreDomain] = true
				}
			}
		}
	})

	if o.slots == 0 {
		return
	}
	day := int(d)
	fpSeriesAdd(&o.fpDelta, snap.pfxTop100Pct, vo.Top100PoisonedPct, day,
		100*float64(o.top100Poisoned)/float64(o.slots))
	if o.top10Slots > 0 {
		fpSeriesAdd(&o.fpDelta, snap.pfxTop10Pct, vo.Top10PoisonedPct, day,
			100*float64(o.top10Poisoned)/float64(o.top10Slots))
	}
	fpSeriesAdd(&o.fpDelta, snap.pfxPenalizedPct, vo.PenalizedPct, day,
		100*float64(o.penalized)/float64(o.slots))
	// Sorted layer order keeps Stacked label insertion deterministic.
	for _, name := range sortedKeys(o.attributed) {
		fpSeriesAdd(&o.fpDelta, attrLayerPfx(v, name), vo.Attributed.Layer(name), day,
			100*float64(o.attributed[name])/float64(o.slots))
	}
}

// commitObservation merges one vertical's deferred shared-state effects
// into the labeler, the dataset, and the seizure engine. RunDay calls it
// for every vertical in fixed vertical order, which makes the merged state
// independent of how the observe phase was scheduled.
func (w *World) commitObservation(o *dayObservation, d simclock.Day, inStudy bool) {
	acc := &w.Data.fpIncr
	*acc += o.fpDelta
	o.fpDelta = 0
	for _, ev := range o.labelerEvents {
		w.Labeler.Observe(ev.domain, d, ev.root)
	}
	for dom := range o.doorNew {
		if _, seen := w.Data.DoorFirstSeen[dom]; !seen {
			fpDaySetPut(acc, pfxDoorSeen, w.Data.DoorFirstSeen, dom, d)
		}
	}
	for dom := range o.storeNew {
		if _, seen := w.Data.StoreFirstSeen[dom]; !seen {
			fpDaySetPut(acc, pfxStoreSeen, w.Data.StoreFirstSeen, dom, d)
		}
	}
	for id := range o.visible {
		w.Seizure.MarkVisible(id, d)
	}
	day := int(d)
	for id, wa := range o.watched {
		ws := w.Data.WatchedPSRs[id]
		fpSeriesAdd(acc, watchedPfx(id, "top100"), ws.Top100, day, float64(wa.top100))
		fpSeriesAdd(acc, watchedPfx(id, "top10"), ws.Top10, day, float64(wa.top10))
	}
	if !inStudy {
		return
	}
	for _, name := range sortedCampKeys(o.campaigns) {
		ca := o.campaigns[name]
		co := w.Data.campaignObs(name)
		fpSeriesAdd(acc, campPfx(name, "top100"), co.PSRTop100, day, float64(ca.top100))
		fpSeriesAdd(acc, campPfx(name, "top10"), co.PSRTop10, day, float64(ca.top10))
		fpSeriesAdd(acc, campPfx(name, "labeled"), co.LabeledPSRs, day, float64(ca.labeled))
		for dom := range ca.doorways {
			fpSetInsert(acc, campPfx(name, "doorways"), co.Doorways, dom)
		}
		for dom := range ca.stores {
			fpSetInsert(acc, campPfx(name, "stores"), co.StoresSeen, dom)
		}
		if !co.Verticals[o.vertical] {
			co.Verticals[o.vertical] = true
			*acc += fpU64(campPfx(name, "verticals"), uint64(o.vertical))
		}
	}
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedCampKeys(m map[string]*campDayAgg) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// storeAgg is one store's accumulated demand for a day.
type storeAgg struct {
	visits float64
	refs   map[string]int
}

// trafficShard is one vertical's demand aggregation, reused day over day.
// Shards are merged in fixed vertical order, so per-store float sums are
// accumulated in the same order at any worker count.
type trafficShard struct {
	perStore map[*store.Store]*storeAgg
}

// applyTraffic routes the day's demand: query volume spread over terms,
// position-biased clicks on results, label deterrence, doorway forwarding
// to stores, conversion into orders.
//
// The per-vertical slot walks are read-only and run in parallel, each
// filling its own shard. Shards merge in vertical order, and each store's
// order draw uses its own RNG substream keyed by (day, store ID) — so the
// result does not depend on scheduling or map iteration order.
func (w *World) applyTraffic(d simclock.Day) {
	span := w.stTraffic.Start(int(d), "")
	defer span.End()
	verticals := brands.All()
	if w.shards == nil {
		w.shards = make([]*trafficShard, len(verticals))
		for i := range w.shards {
			w.shards[i] = &trafficShard{perStore: make(map[*store.Store]*storeAgg)}
		}
	}
	parallel.ForEachObserved(w.Cfg.ObserveWorkers, len(verticals), func(i int) {
		w.shardTraffic(w.shards[i], verticals[i], d)
	}, w.trafPool)

	// Deterministic reduction: merge shards in vertical order, then visit
	// stores in ID order with per-store RNG substreams.
	merged := make(map[*store.Store]*storeAgg)
	for _, sh := range w.shards {
		for st, a := range sh.perStore {
			m := merged[st]
			if m == nil {
				m = &storeAgg{refs: make(map[string]int, len(a.refs))}
				merged[st] = m
			}
			m.visits += a.visits
			for dom, n := range a.refs {
				m.refs[dom] += n
			}
		}
	}
	stores := make([]*store.Store, 0, len(merged))
	for st := range merged {
		stores = append(stores, st)
	}
	sort.Slice(stores, func(i, j int) bool { return stores[i].ID() < stores[j].ID() })

	tr := w.R.Sub(fmt.Sprintf("traffic/%d", d))
	for _, st := range stores {
		a := merged[st]
		visits := a.visits * (1 + w.Traffic.DirectVisitShare)
		var orders float64
		if !st.Dep.Campaign.OrdersHalted(d) && !st.PaymentHalted(d) {
			orders = w.Traffic.Orders(tr.Sub(st.ID()), visits)
		}
		st.RecordDay(d, visits, w.Traffic.Pages(visits), orders, a.refs)
	}
}

// shardTraffic accumulates one vertical's demand into its shard. Read-only
// with respect to world state; doorway-to-store resolution goes through the
// vertical's snapshot, store access through mutex-guarded accessors.
func (w *World) shardTraffic(sh *trafficShard, v brands.Vertical, d simclock.Day) {
	clear(sh.perStore)
	snap := w.vertSnaps[v]
	volume := v.DailyQueryVolume() * w.Cfg.Scale
	nTerms := w.Cfg.TermsPerVertical
	w.Engine.EachSlot(v, func(termIdx, rank int, s *searchsim.Slot) {
		if !s.Poisoned() {
			return
		}
		termVol := volume * traffic.TermWeight(termIdx, nTerms)
		clicks := w.Traffic.SlotClicks(termVol, rank, s.Labeled)
		if clicks <= 0 {
			return
		}
		st := snap.doorTargetByID(s.Doorway.ID)
		if st == nil {
			return
		}
		dom := st.CurrentDomain(d)
		if dom == "" {
			return
		}
		if _, gone := st.SeizedOn(dom); gone {
			// Users land on the seizure notice: traffic lost.
			return
		}
		a := sh.perStore[st]
		if a == nil {
			a = &storeAgg{refs: make(map[string]int)}
			sh.perStore[st] = a
		}
		a.visits += clicks
		a.refs[s.Domain] += int(clicks * w.Traffic.ReferrerRate)
	})
}

// purchaseTargets returns the purchase-pair target list: up to
// SampleStoresPerCampaign stores per named campaign (scripted case-study
// stores first, since deployments list them first).
//
// Invariant: the list is built lazily on the first in-study day and is
// immutable afterwards — the sampler must probe a stable store set for the
// whole study. The sync.Once guards the build against a concurrent first
// call.
func (w *World) purchaseTargets() []purchase.Target {
	w.targetsOnce.Do(w.buildPurchaseTargets)
	return w.targets
}

func (w *World) buildPurchaseTargets() {
	for _, dep := range w.Deps {
		if dep.Spec.IsTail() {
			continue
		}
		key := dep.Spec.Key()
		n := w.Cfg.SampleStoresPerCampaign
		stores := w.campStores[key]
		if len(stores) < n {
			n = len(stores)
		}
		// The PHP?P= and BIGLOVE scripted stores must all be sampled for
		// Figures 5 and 6.
		if dep.Spec.Name == "PHP?P=" && len(stores) >= 4 {
			n = 4
		}
		for i := 0; i < n; i++ {
			st := stores[i] // bind per-target; the closure below outlives the loop
			w.targets = append(w.targets, purchase.Target{
				StoreID:     st.ID(),
				CampaignKey: key,
				Domain: func(d simclock.Day) string {
					if st.Dark(d) {
						return ""
					}
					return st.CurrentDomain(d)
				},
			})
		}
	}
	sort.Slice(w.targets, func(i, j int) bool {
		return w.targets[i].StoreID < w.targets[j].StoreID
	})
}

// Finalize copies end-of-run state into the dataset: label days and
// purchase-pair estimates. A cancelled-then-resumed study finalizes more
// than once, so both copies are replace-aware: the day fingerprint drops a
// superseded entry's atoms before folding the new ones.
func (w *World) Finalize() {
	acc := &w.Data.fpIncr
	for dom := range w.doorByDom {
		if ld, ok := w.Engine.LabeledOn(dom); ok {
			fpDaySetPut(acc, pfxDoorLabel, w.Data.DoorLabeledOn, dom, ld)
		}
	}
	for id, series := range w.Sampler.AllSeries() {
		os := &OrderSeries{
			StoreID:    id,
			Rates:      series.Rates(w.Sim.Days()),
			Volume:     series.Volume(w.Sim.Days()),
			TotalDelta: series.TotalDelta(),
		}
		if old, ok := w.Data.SampledOrders[id]; ok {
			*acc -= orderSeriesAtom(id, old)
		}
		w.Data.SampledOrders[id] = os
		*acc += orderSeriesAtom(id, os)
	}
}
