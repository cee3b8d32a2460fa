package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/brands"
	"repro/internal/campaign"
	"repro/internal/classify"
	"repro/internal/cnc"
	"repro/internal/crawler"
	"repro/internal/faults"
	"repro/internal/htmlgen"
	"repro/internal/intervention"
	"repro/internal/parallel"
	"repro/internal/purchase"
	"repro/internal/rng"
	"repro/internal/searchsim"
	"repro/internal/simclock"
	"repro/internal/simweb"
	"repro/internal/store"
	"repro/internal/supplier"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// SupplierDomain is where the §4.5 fulfilment partner's tracking site
// lives.
const SupplierDomain = "track-supplier-cn.example"

// World is one fully wired simulated ecosystem plus its measurement
// apparatus.
type World struct {
	Cfg   Config
	Study simclock.Window // crawl window
	Sim   simclock.Window // simulation window (>= Study)

	R     *rng.Source
	Gen   *htmlgen.Generator
	Specs []*campaign.Spec // 52 named campaigns
	Tail  []*campaign.Spec // unlabeled long tail
	Deps  []*campaign.Deployment

	Web     *simweb.Web
	Engine  *searchsim.Engine
	Stores  []*store.Store
	Traffic traffic.Model

	Crawler *crawler.Crawler
	Labeler *intervention.Labeler
	Seizure *intervention.SeizureEngine
	Sampler *purchase.Sampler

	// Faults is the deterministic fault plan the crawl pipeline runs
	// against, nil when Config.Faults is disabled (the common case: every
	// fault check is a nil-receiver no-op, so the fault-free hot path pays
	// nothing).
	Faults *faults.Plan
	// Resilient is the retry/circuit-breaker fetch layer mounted between
	// fault injection and the detector; nil when faults are disabled.
	Resilient *crawler.ResilientFetcher

	Classifier *classify.Model
	SeedDocs   []classify.Doc
	CVAccuracy float64

	Supplier *supplier.Dataset

	storesByID  map[string]*store.Store
	storeByDom  map[string]*store.Store // any domain (incl. backups) -> store
	campStores  map[string][]*store.Store
	vertStores  map[string][]*store.Store // campaignKey|vertical -> stores
	doorTargets map[string]*store.Store   // doorway ID -> assigned store
	doorByDom   map[string]*campaign.Doorway
	// notices holds each court case's one notice site (see noticeSite).
	notices map[*intervention.CourtCase]*simweb.SeizureNoticeSite

	// vertSnaps are the per-vertical read-only views of the wiring above,
	// built once by snapshotVerticals after NewWorld finishes wiring; the
	// parallel observe and traffic phases resolve domains through them
	// instead of the global cross-vertical maps (see snapshot.go).
	vertSnaps map[brands.Vertical]*vertSnapshot

	// attribution caches Attribute's per-domain verdicts. Guarded by attrMu:
	// the parallel observe phase classifies store domains from several
	// vertical goroutines at once. Verdicts are deterministic per (domain,
	// day), so concurrent first calls always cache the same value.
	attrMu      sync.Mutex
	attribution map[string]string // store domain -> campaign name or "" (unknown)

	targets     []purchase.Target // purchase-pair targets, built lazily
	targetsOnce sync.Once         // guards the lazy build (see purchaseTargets)

	// obs and shards are the day pipeline's reusable per-vertical buffers
	// (see RunDay and applyTraffic). union, jobs, checks and jobNext are
	// the check step's day-scoped buffers (see dayJobs): the day's domains
	// across verticals by job index, one crawler job per domain, and the
	// jobs' checks.
	obs     []*dayObservation
	shards  []*trafficShard
	union   map[string]int32
	jobs    []crawler.DomainJob
	checks  []crawler.DomainCheck
	jobNext []int32

	// Telemetry handles, resolved once from Cfg.Telemetry at construction.
	// A nil registry yields nil handles throughout, so with telemetry off
	// every instrumentation point is a nil-check no-op.
	tel        *telemetry.Registry
	stDay      *telemetry.Stage
	stObserve  *telemetry.Stage
	stObsVert  *telemetry.Stage
	stCommit   *telemetry.Stage
	stTraffic  *telemetry.Stage
	cDays      *telemetry.Counter
	cOutages   *telemetry.Counter
	cSlots     *telemetry.Counter
	cLostSlots *telemetry.Counter
	// obsPool/trafPool stay nil interfaces when telemetry is off, which
	// keeps the worker pools on their unobserved (clock-free) hot path.
	obsPool  parallel.PoolObserver
	trafPool parallel.PoolObserver

	// nextDay is RunContext's resume cursor: the first day not yet run.
	nextDay simclock.Day

	// OnDayStart, when set, is called by RunContext immediately before each
	// day executes, while the world is still quiescent. The service plane
	// hooks here to gate day execution on a shared worker budget; blocking
	// inside the hook delays the day but cannot change its result. The hook
	// must not mutate the world.
	OnDayStart func(d simclock.Day)

	// OnDayEnd, when set, is called by RunContext after each day fully
	// commits and the resume cursor has advanced past it — the exact moment
	// the world is quiescent and Snapshot captures a coherent study. The
	// checkpoint layer hooks here; the hook must not mutate the world.
	OnDayEnd func(d simclock.Day)

	Data *Dataset
}

// NewWorld builds the ecosystem: campaign roster and tail, deployments,
// stores, the web, the search engine, interventions, the supplier site,
// and the trained classifier.
func NewWorld(cfg Config) *World {
	study, sim := cfg.Windows()
	r := rng.New(cfg.Seed)
	w := &World{
		Cfg:   cfg,
		Study: study,
		Sim:   sim,
		R:     r,
		Gen:   htmlgen.New(r),
		Web:   simweb.NewWeb(),

		storesByID:  make(map[string]*store.Store),
		storeByDom:  make(map[string]*store.Store),
		campStores:  make(map[string][]*store.Store),
		vertStores:  make(map[string][]*store.Store),
		doorTargets: make(map[string]*store.Store),
		doorByDom:   make(map[string]*campaign.Doorway),
		notices:     make(map[*intervention.CourtCase]*simweb.SeizureNoticeSite),
		attribution: make(map[string]string),
	}
	w.Traffic = traffic.Default()

	// Resolve telemetry handles up front (all nil-safe when the registry
	// is nil). The pool observers are set only with telemetry on so the
	// worker pools see a nil interface — not a typed nil — and skip their
	// timing instrumentation entirely.
	w.tel = cfg.Telemetry
	w.stDay = w.tel.Stage("day")
	w.stObserve = w.tel.Stage("observe")
	w.stObsVert = w.tel.Stage("observe_vertical")
	w.stCommit = w.tel.Stage("commit")
	w.stTraffic = w.tel.Stage("traffic")
	w.cDays = w.tel.Counter("core_days_total")
	w.cOutages = w.tel.Counter("core_outage_days_total")
	w.cSlots = w.tel.Counter("core_slots_observed_total")
	w.cLostSlots = w.tel.Counter("core_slots_lost_total")
	if w.tel != nil {
		w.obsPool = w.tel.Pool("observe")
		w.trafPool = w.tel.Pool("traffic")
	}

	// Campaign roster + tail, deployed into a shared domain namespace.
	w.Specs = campaign.Roster(study)
	w.Tail = campaign.TailRoster(study, cfg.TailCampaigns)
	all := append(append([]*campaign.Spec{}, w.Specs...), w.Tail...)
	w.Deps = campaign.DeployAll(r.Sub("deploy"), all, cfg.Scale)

	// Store runtimes and web mounting.
	days := sim.Days()
	sr := r.Sub("stores")
	for _, dep := range w.Deps {
		for _, sd := range dep.Stores {
			st := store.New(sd, sr, days)
			w.Stores = append(w.Stores, st)
			w.storesByID[st.ID()] = st
			key := dep.Spec.Key()
			w.campStores[key] = append(w.campStores[key], st)
			vk := vertKey(key, sd.Vertical)
			w.vertStores[vk] = append(w.vertStores[vk], st)
			site := &simweb.StoreSite{Store: st, Gen: w.Gen, Window: sim}
			for _, dom := range sd.Domains {
				w.Web.Register(dom, site)
				w.storeByDom[dom] = st
			}
		}
	}

	// Term sets and doorway mounting.
	termSets := make(map[brands.Vertical][]string)
	for _, v := range brands.All() {
		termSets[v] = brands.Terms(r.Sub("terms"), v, cfg.TermsPerVertical).Terms
	}
	dr := r.Sub("doorways")
	for _, dep := range w.Deps {
		for _, dw := range dep.Doorways {
			w.doorByDom[dw.Domain] = dw
			st := w.assignStore(dr, dw)
			w.doorTargets[dw.ID] = st
			site := &simweb.DoorwaySite{
				Doorway:    dw,
				Gen:        w.Gen,
				Terms:      sampleTerms(dr, termSets[dw.Vertical], 6),
				JSRedirect: dr.Bool(0.45),
			}
			if st != nil {
				theStore := st
				site.Resolve = func(d simclock.Day) string {
					dom := theStore.CurrentDomain(d)
					if dom == "" {
						return ""
					}
					return "http://" + dom + "/"
				}
			} else {
				site.Resolve = func(simclock.Day) string { return "" }
			}
			w.Web.Register(dw.Domain, site)
		}
	}

	// Benign long tail: lazily materialised.
	gen := w.Gen
	w.Web.SetFallback(func(domain string) simweb.Site {
		return &simweb.BenignSite{Domain: domain, Term: "shopping", Gen: gen}
	})

	// Search engine over the deployments.
	scfg := searchsim.DefaultConfig()
	scfg.TermsPerVertical = cfg.TermsPerVertical
	scfg.SlotsPerTerm = cfg.SlotsPerTerm
	w.Engine = searchsim.New(scfg, r, w.Deps, termSets)

	// Measurement apparatus. With fault injection enabled, the detector's
	// fetch path is web -> fault injection -> retries/circuit breakers;
	// with it disabled the detector talks to the web directly — the exact
	// pre-fault call chain, so fault-free runs stay bit-identical and pay
	// zero overhead. (Note faults degrade only the *measurement* — the
	// crawler's view. Users, interventions and the purchase sampler keep
	// operating: the paper's crawler lost days while Google and the
	// campaigns did not.)
	var crawlFetch simweb.Fetcher = w.Web
	if cfg.Faults.Enabled() {
		w.Faults = faults.NewPlan(r, cfg.Faults)
		w.Faults.Instrument(w.tel)
		w.Resilient = crawler.NewResilientFetcher(
			faults.Wrap(w.Faults, w.Web),
			crawler.DefaultResilience(),
			r.Sub("crawler/backoff").Uint64(),
		)
		w.Resilient.Instrument(w.tel)
		crawlFetch = w.Resilient
	}
	det := crawler.NewDetector(crawlFetch)
	det.Opts.EnableVanGogh = cfg.VanGogh
	det.Opts.RenderOnDagger = cfg.RenderOnDagger
	w.Crawler = crawler.New(det)
	w.Crawler.RecheckDays = cfg.CrawlRecheckDays
	w.Crawler.Workers = cfg.CrawlWorkers
	w.Crawler.Instrument(w.tel)
	w.Sampler = purchase.NewSampler(w.Web)

	// Interventions.
	w.Labeler = intervention.NewLabeler()
	firms := intervention.Firms()
	if cfg.ReactiveSeizures {
		firms = intervention.ReactiveFirms()
	}
	w.Seizure = intervention.NewSeizureEngineWithFirms(r, study, w.Stores, firms)
	w.Seizure.OnSeize = w.onSeize
	w.Seizure.OnReact = w.onReact

	// C&C hosts: every named campaign runs a directive gate over its store
	// fleet (§3.1.2's infiltration surface).
	for _, dep := range w.Deps {
		if dep.Spec.IsTail() {
			continue
		}
		key := dep.Spec.Key()
		w.Web.Register(cnc.Domain(key), cnc.NewSite(dep.Spec, w.campStores[key]))
	}

	// Payment-level intervention: disable an acquiring bank on a given day.
	if cfg.BreakBank != "" {
		for _, st := range w.Stores {
			if st.Processor.Name == cfg.BreakBank {
				st.DisableProcessor(simclock.Day(cfg.BreakBankDay))
			}
		}
	}

	// Supplier dataset and site.
	n := int(float64(cfg.SupplierRecords) * cfg.Scale)
	if n < 200 {
		n = 200
	}
	w.Supplier = supplier.Generate(r, n)
	w.Web.Register(SupplierDomain, supplier.NewSite(w.Supplier))

	// Classifier: train on a hand-labeled seed sampled from the named
	// campaigns only (the tail is, by construction, unlabeled).
	w.trainClassifier()

	w.Data = NewDataset(w)
	w.watchCaseStudyStores()
	w.snapshotVerticals()
	return w
}

// watchCaseStudyStores arms per-store PSR tracking for the scripted
// Figure 5 (BIGLOVE coco*.com) and Figure 6 (PHP?P= international) stores,
// and makes their analytics publicly readable (§4.4 collected AWStats for
// exactly such stores).
func (w *World) watchCaseStudyStores() {
	days := w.Sim.Days()
	for _, dep := range w.Deps {
		var n int
		switch dep.Spec.Name {
		case "BIGLOVE":
			n = 1
		case "PHP?P=":
			n = 4
		default:
			continue
		}
		for i := 0; i < n && i < len(dep.Stores); i++ {
			st := w.storesByID[dep.Stores[i].ID]
			st.AWStatsPublic = true
			w.Data.WatchedPSRs[st.ID()] = &WatchedStore{
				StoreID: st.ID(),
				Top100:  make([]float64, days),
				Top10:   make([]float64, days),
			}
		}
	}
}

func vertKey(campaignKey string, v brands.Vertical) string {
	return fmt.Sprintf("%s|%d", campaignKey, int(v))
}

// assignStore picks the storefront a doorway forwards to: one of its
// campaign's stores for the doorway's vertical, or any campaign store as a
// fallback.
func (w *World) assignStore(r *rng.Source, dw *campaign.Doorway) *store.Store {
	key := dw.Campaign.Key()
	pool := w.vertStores[vertKey(key, dw.Vertical)]
	if len(pool) == 0 {
		pool = w.campStores[key]
	}
	if len(pool) == 0 {
		return nil
	}
	return pool[r.Intn(len(pool))]
}

func sampleTerms(r *rng.Source, terms []string, n int) []string {
	if len(terms) <= n {
		return terms
	}
	start := r.Intn(len(terms) - n)
	return terms[start : start+n]
}

// onSeize is the world's response to a domain seizure: the domain starts
// serving the notice page. The crawler's verdict cache holds no entry for
// it: the cache is keyed by SERP domains, doorways and benign sites, and
// a store domain is never one (TestSeizedDomainsNeverCached).
func (w *World) onSeize(domain string, c *intervention.CourtCase) {
	w.Web.Register(domain, w.noticeSite(c))
	if w.Data != nil {
		w.Data.recordSeizure(domain, c)
	}
}

// noticeSite returns the one site that serves all of a case's seized
// domains, so each case's notice is rendered once. The case's domain list
// is complete before its first seizure fires.
func (w *World) noticeSite(c *intervention.CourtCase) *simweb.SeizureNoticeSite {
	site := w.notices[c]
	if site == nil {
		site = &simweb.SeizureNoticeSite{
			Firm:    c.Firm.Name,
			CaseID:  c.ID,
			Domains: c.Domains,
			Gen:     w.Gen,
		}
		w.notices[c] = site
	}
	return site
}

// onReact records the campaign's re-pointing of a store to a backup domain.
func (w *World) onReact(st *store.Store, newDomain string, day simclock.Day) {
	if w.Data != nil {
		w.Data.recordReaction(st, newDomain, day)
	}
}

// trainClassifier builds the labeled corpus from named campaigns, samples
// the seed set, trains, and records 10-fold CV accuracy.
func (w *World) trainClassifier() {
	var namedDeps []*campaign.Deployment
	for _, dep := range w.Deps {
		if !dep.Spec.IsTail() {
			namedDeps = append(namedDeps, dep)
		}
	}
	docs := classify.BuildCorpus(w.R, w.Gen, namedDeps, classify.DefaultCorpusOptions())
	// Sample the seed: keep class coverage by taking docs round-robin per
	// class up to the target.
	byClass := make(map[string][]classify.Doc)
	var classes []string
	for _, d := range docs {
		if len(byClass[d.Label]) == 0 {
			classes = append(classes, d.Label)
		}
		byClass[d.Label] = append(byClass[d.Label], d)
	}
	sort.Strings(classes)
	var seed []classify.Doc
	for round := 0; len(seed) < w.Cfg.SeedDocsTarget; round++ {
		added := false
		for _, c := range classes {
			if round < len(byClass[c]) && len(seed) < w.Cfg.SeedDocsTarget {
				seed = append(seed, byClass[c][round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	w.SeedDocs = seed
	opts := classify.DefaultOptions()
	if w.tel != nil {
		opts.EpochCounter = w.tel.Counter("classify_epochs_total")
		opts.Pool = w.tel.Pool("train")
	}
	span := w.tel.Stage("train").Start(0, "")
	w.CVAccuracy = classify.CrossValidate(seed, 10, opts)
	w.Classifier = classify.Train(seed, opts)
	span.End()
}

// Attribute classifies the store behind a domain into a campaign name, or
// "" when confidence falls below the unknown threshold. Results are cached
// per domain. Attribute is safe for concurrent use: the fetch and the
// classifier are read-only, and a domain's verdict is deterministic for a
// given day, so racing first calls converge on the same cached value
// (first write wins).
func (w *World) Attribute(storeDomain string, day simclock.Day) string {
	w.attrMu.Lock()
	if name, ok := w.attribution[storeDomain]; ok {
		w.attrMu.Unlock()
		return name
	}
	w.attrMu.Unlock()
	resp := w.Web.Fetch(simweb.Request{
		URL:       "http://" + storeDomain + "/",
		UserAgent: simweb.BrowserUA,
		Referrer:  simweb.SearchReferrer,
		Day:       day,
	})
	name := ""
	if resp.Status == 200 {
		pred := w.Classifier.Predict(featuresOf(resp.Body))
		if pred.Prob >= w.Cfg.UnknownThreshold {
			name = pred.Label
		}
	}
	w.attrMu.Lock()
	defer w.attrMu.Unlock()
	if cached, ok := w.attribution[storeDomain]; ok {
		return cached
	}
	w.attribution[storeDomain] = name
	return name
}

// TruthCampaign returns the ground-truth campaign owning a store domain,
// for validation experiments.
func (w *World) TruthCampaign(storeDomain string) (*campaign.Spec, bool) {
	st, ok := w.storeByDom[storeDomain]
	if !ok {
		return nil, false
	}
	return st.Dep.Campaign, true
}

// StoreByDomain resolves any of a store's domains to its runtime.
func (w *World) StoreByDomain(domain string) (*store.Store, bool) {
	st, ok := w.storeByDom[domain]
	return st, ok
}

// StoreByID resolves a store id.
func (w *World) StoreByID(id string) (*store.Store, bool) {
	st, ok := w.storesByID[id]
	return st, ok
}

// CampaignStores lists a campaign's stores by its key.
func (w *World) CampaignStores(key string) []*store.Store {
	return w.campStores[key]
}

// DoorwayTarget returns the store a doorway forwards to.
func (w *World) DoorwayTarget(dwID string) (*store.Store, bool) {
	st, ok := w.doorTargets[dwID]
	return st, ok
}
