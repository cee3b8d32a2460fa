package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/brands"
	"repro/internal/campaign"
	"repro/internal/crawler"
	"repro/internal/intervention"
	"repro/internal/metrics"
	"repro/internal/purchase"
	"repro/internal/searchsim"
	"repro/internal/simclock"
	"repro/internal/store"
)

// Durable checkpoints.
//
// A snapshot captures exactly the state a run mutates after NewWorld
// finishes wiring. Everything else — the campaign roster, deployments, term
// sets, the web, the classifier, the supplier dataset, the per-vertical
// observe snapshots — is a deterministic function of the Config and is
// rebuilt identically by constructing a fresh world, so restoring is
// "NewWorld(cfg), then overwrite the mutable state". The two sequential
// RNG streams a run advances (the search engine's and the seizure
// engine's) have their positions captured; every other random decision in
// the pipeline is a pure hash of (seed, request attributes) and needs no
// state.
//
// Deliberately NOT snapshotted:
//   - telemetry: observational only, proven fingerprint-neutral; a resumed
//     run's counters restart from zero and describe the resumed process.
//   - purchase targets (purchaseTargets): rebuilt lazily and
//     deterministically from the wiring.
//   - detector/htmlgen/simweb memos: pure caches whose contents never
//     change a verdict, only whether it is recomputed.

// SnapshotVersion identifies the snapshot payload schema. Bump on any
// incompatible change to StudySnapshot or the state types it embeds.
// Version 2 added the self-describing Version field to the payload;
// version-1 payloads decode with Version 0 and remain loadable.
const SnapshotVersion = 2

// AttributionEntry is one cached classifier verdict (domain -> campaign
// name, "" = unknown). The cache is state, not memoisation: verdicts are
// deterministic per (domain, day) but depend on the day of first
// classification, so a resumed run must inherit them.
type AttributionEntry struct {
	Domain string
	Name   string
}

// DomainDayEntry is one serialized string->day map entry.
type DomainDayEntry struct {
	Key string
	Day simclock.Day
}

// StackedState serializes a metrics.Stacked preserving label insertion
// order (Dataset.Fingerprint walks labels in that order).
type StackedState struct {
	Labels []string
	Layers []metrics.Series // aligned with Labels
}

// VerticalObsState is one vertical's serialized observations.
type VerticalObsState struct {
	Vertical            int
	Top10PoisonedPct    metrics.Series
	Top100PoisonedPct   metrics.Series
	PenalizedPct        metrics.Series
	Attributed          StackedState
	PSRObservations     int64
	LabeledObservations int64
	LabelEligible       int64
	DoorwaysSeen        []string // sorted
	StoresSeen          []string // sorted
	CampaignsSeen       []string // sorted
}

// CampaignObsState is one campaign's serialized observations.
type CampaignObsState struct {
	Name        string
	PSRTop100   metrics.Series
	PSRTop10    metrics.Series
	LabeledPSRs metrics.Series
	Doorways    []string // sorted
	StoresSeen  []string // sorted
	Verticals   []int    // sorted
}

// OrderSeriesState is one store's serialized purchase-pair estimate.
type OrderSeriesState struct {
	StoreID    string
	Rates      metrics.Series
	Volume     metrics.Series
	TotalDelta int64
}

// WatchedStoreState is one case-study store's serialized PSR series.
type WatchedStoreState struct {
	StoreID string
	Top100  metrics.Series
	Top10   metrics.Series
}

// DatasetState is the dataset's complete mutable state, maps flattened to
// sorted slices so the serialized form is deterministic.
type DatasetState struct {
	DaysRun        int
	Verticals      []VerticalObsState // in brands.All() order
	Campaigns      []CampaignObsState // sorted by Name
	ChurnNew       metrics.Series
	ChurnTotal     metrics.Series
	Seizures       []ObservedSeizure
	Reactions      []Reaction
	StoreFirstSeen []DomainDayEntry // sorted by Key
	DoorFirstSeen  []DomainDayEntry
	DoorLabeledOn  []DomainDayEntry
	SampledOrders  []OrderSeriesState // sorted by StoreID
	WatchedPSRs    []WatchedStoreState
	FaultsEnabled  bool
	Coverage       metrics.Series
	ObservedDays   []bool
	FpIncr         uint64
}

// StudySnapshot is the complete mutable state of a running study at a day
// boundary. ConfigHash binds it to the generating Config: a snapshot is
// only meaningful against a world built from the same configuration.
type StudySnapshot struct {
	// Version is the SnapshotVersion the writing build serialized. Decoders
	// reject payloads newer than they understand (a typed error, not a
	// corruption class); older payloads — including version-1 files that
	// predate the field and decode as 0 — stay loadable.
	Version    int
	ConfigHash uint64
	NextDay    simclock.Day
	Engine     searchsim.EngineState
	Stores     []store.State // in w.Stores order
	Labeler    intervention.LabelerState
	Seizure    intervention.SeizureState
	Sampler    purchase.SamplerState
	Crawler    crawler.CrawlerState
	// Resilient is nil when the study runs without fault injection (the
	// retry/breaker layer does not exist then).
	Resilient   *crawler.ResilientState
	Attribution []AttributionEntry // sorted by Domain
	Dataset     DatasetState
}

// ConfigHash digests every Config field that shapes the simulation.
// Telemetry is excluded: it is observational wiring, proven
// fingerprint-neutral, and a study may legitimately resume with a
// different registry (or none).
func (c Config) ConfigHash() uint64 {
	h := fpStr(fnvOffset64, "config/v1")
	h = fpU64(h, c.Seed)
	h = fpU64(h, math.Float64bits(c.Scale))
	h = fpU64(h, uint64(c.TermsPerVertical))
	h = fpU64(h, uint64(c.SlotsPerTerm))
	h = fpU64(h, uint64(c.TailCampaigns))
	h = fpU64(h, uint64(c.SampleStoresPerCampaign))
	h = fpU64(h, uint64(c.SeedDocsTarget))
	h = fpU64(h, math.Float64bits(c.UnknownThreshold))
	h = fpU64(h, uint64(c.CrawlRecheckDays))
	h = fpU64(h, b2u(c.VanGogh))
	h = fpU64(h, b2u(c.RenderOnDagger))
	h = fpU64(h, uint64(c.SupplierRecords))
	h = fpU64(h, b2u(c.ExtendedTail))
	h = fpU64(h, b2u(c.ReactiveSeizures))
	h = fpStr(h, c.BreakBank)
	h = fpU64(h, uint64(c.BreakBankDay))
	h = fpU64(h, math.Float64bits(c.Faults.TimeoutRate))
	h = fpU64(h, math.Float64bits(c.Faults.ErrorRate))
	h = fpU64(h, math.Float64bits(c.Faults.TruncateRate))
	h = fpU64(h, math.Float64bits(c.Faults.DeadDomainRate))
	h = fpU64(h, math.Float64bits(c.Faults.RateLimitRate))
	h = fpU64(h, math.Float64bits(c.Faults.OutageRate))
	// CrawlWorkers, ObserveWorkers and MaxDays are driving knobs, not
	// simulation shape: every day that runs is bit-identical at any worker
	// count or cap, and a resumed run may use different values than the
	// killed one (e.g. resume a capped study to the full window).
	return h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Snapshot captures the world's complete mutable state. It must be called
// at a day boundary, when the day pipeline is quiescent (RunContext's
// OnDayEnd hook guarantees this; so does any moment no Run* call is
// active).
func (w *World) Snapshot() *StudySnapshot {
	snap := &StudySnapshot{
		Version:    SnapshotVersion,
		ConfigHash: w.Cfg.ConfigHash(),
		NextDay:    w.nextDay,
		Engine:     w.Engine.ExportState(),
		Labeler:    w.Labeler.ExportState(),
		Seizure:    w.Seizure.ExportState(),
		Sampler:    w.Sampler.ExportState(),
		Crawler:    w.Crawler.ExportCache(),
	}
	for _, st := range w.Stores {
		snap.Stores = append(snap.Stores, st.ExportState())
	}
	if w.Resilient != nil {
		rs := w.Resilient.ExportState()
		snap.Resilient = &rs
	}
	w.attrMu.Lock()
	for dom, name := range w.attribution {
		snap.Attribution = append(snap.Attribution, AttributionEntry{Domain: dom, Name: name})
	}
	w.attrMu.Unlock()
	sort.Slice(snap.Attribution, func(i, j int) bool { return snap.Attribution[i].Domain < snap.Attribution[j].Domain })
	snap.Dataset = w.Data.exportState()
	return snap
}

// RestoreSnapshot overwrites a freshly constructed world's mutable state
// with a snapshot. The world must not have run any days yet, and must have
// been built from the same Config the snapshot was taken under (checked
// via ConfigHash). On success the world's resume cursor sits at
// snap.NextDay and a subsequent RunContext continues the study exactly
// where the snapshotted process left off.
func (w *World) RestoreSnapshot(snap *StudySnapshot) error {
	if w.nextDay != 0 {
		return fmt.Errorf("core: RestoreSnapshot on a world that already ran %d days", w.nextDay)
	}
	if got, want := w.Cfg.ConfigHash(), snap.ConfigHash; got != want {
		return fmt.Errorf("core: snapshot config hash %016x does not match world config %016x", want, got)
	}
	if snap.NextDay < 0 || int(snap.NextDay) > w.Sim.Days() {
		return fmt.Errorf("core: snapshot day cursor %d outside simulation window [0, %d]", snap.NextDay, w.Sim.Days())
	}
	if err := w.Engine.RestoreState(snap.Engine, w.resolveDoorway); err != nil {
		return err
	}
	if len(snap.Stores) != len(w.Stores) {
		return fmt.Errorf("core: snapshot has %d stores, world has %d", len(snap.Stores), len(w.Stores))
	}
	for _, st := range snap.Stores {
		rt, ok := w.storesByID[st.ID]
		if !ok {
			return fmt.Errorf("core: snapshot references unknown store %q", st.ID)
		}
		if err := rt.RestoreState(st); err != nil {
			return err
		}
	}
	w.Labeler.RestoreState(snap.Labeler)
	if err := w.Seizure.RestoreState(snap.Seizure); err != nil {
		return err
	}
	w.Sampler.RestoreState(snap.Sampler)
	w.Crawler.RestoreCache(snap.Crawler)
	switch {
	case snap.Resilient != nil && w.Resilient != nil:
		w.Resilient.RestoreState(*snap.Resilient)
	case snap.Resilient != nil || w.Resilient != nil:
		return fmt.Errorf("core: snapshot and world disagree on fault injection")
	}
	w.attrMu.Lock()
	w.attribution = make(map[string]string, len(snap.Attribution))
	for _, e := range snap.Attribution {
		w.attribution[e.Domain] = e.Name
	}
	w.attrMu.Unlock()
	if err := w.Data.restoreState(snap.Dataset); err != nil {
		return err
	}
	// Re-serve seizure notices: every in-study case seized its victim
	// stores' then-current domains (the first len(ObservedStoreIDs) entries
	// of the case's domain list; the bulk tail was never mounted).
	for _, c := range w.Seizure.Cases() {
		for i := 0; i < len(c.ObservedStoreIDs) && i < len(c.Domains); i++ {
			w.Web.Register(c.Domains[i], w.noticeSite(c))
		}
	}
	w.nextDay = snap.NextDay
	return nil
}

// resolveDoorway maps a doorway domain to its deployed doorway.
func (w *World) resolveDoorway(dom string) *campaign.Doorway {
	return w.doorByDom[dom]
}

// exportState flattens the dataset into its serialized form.
func (d *Dataset) exportState() DatasetState {
	st := DatasetState{
		DaysRun:        d.DaysRun,
		ChurnNew:       append(metrics.Series(nil), d.ChurnNew...),
		ChurnTotal:     append(metrics.Series(nil), d.ChurnTotal...),
		Seizures:       append([]ObservedSeizure(nil), d.Seizures...),
		Reactions:      append([]Reaction(nil), d.Reactions...),
		StoreFirstSeen: sortedDaySet(d.StoreFirstSeen),
		DoorFirstSeen:  sortedDaySet(d.DoorFirstSeen),
		DoorLabeledOn:  sortedDaySet(d.DoorLabeledOn),
		FaultsEnabled:  d.FaultsEnabled,
		Coverage:       append(metrics.Series(nil), d.Coverage...),
		ObservedDays:   append([]bool(nil), d.ObservedDays...),
		FpIncr:         d.fpIncr,
	}
	for _, v := range brands.All() {
		vo := d.Verticals[v]
		vs := VerticalObsState{
			Vertical:            int(v),
			Top10PoisonedPct:    append(metrics.Series(nil), vo.Top10PoisonedPct...),
			Top100PoisonedPct:   append(metrics.Series(nil), vo.Top100PoisonedPct...),
			PenalizedPct:        append(metrics.Series(nil), vo.PenalizedPct...),
			PSRObservations:     vo.PSRObservations,
			LabeledObservations: vo.LabeledObservations,
			LabelEligible:       vo.LabelEligible,
			DoorwaysSeen:        sortedSet(vo.DoorwaysSeen),
			StoresSeen:          sortedSet(vo.StoresSeen),
			CampaignsSeen:       sortedSet(vo.CampaignsSeen),
		}
		for _, label := range vo.Attributed.Labels {
			vs.Attributed.Labels = append(vs.Attributed.Labels, label)
			vs.Attributed.Layers = append(vs.Attributed.Layers,
				append(metrics.Series(nil), vo.Attributed.Layers[label]...))
		}
		st.Verticals = append(st.Verticals, vs)
	}
	names := make([]string, 0, len(d.Campaigns))
	for name := range d.Campaigns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		co := d.Campaigns[name]
		cs := CampaignObsState{
			Name:        name,
			PSRTop100:   append(metrics.Series(nil), co.PSRTop100...),
			PSRTop10:    append(metrics.Series(nil), co.PSRTop10...),
			LabeledPSRs: append(metrics.Series(nil), co.LabeledPSRs...),
			Doorways:    sortedSet(co.Doorways),
			StoresSeen:  sortedSet(co.StoresSeen),
		}
		for _, v := range brands.All() {
			if co.Verticals[v] {
				cs.Verticals = append(cs.Verticals, int(v))
			}
		}
		st.Campaigns = append(st.Campaigns, cs)
	}
	ids := make([]string, 0, len(d.SampledOrders))
	for id := range d.SampledOrders {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		os := d.SampledOrders[id]
		st.SampledOrders = append(st.SampledOrders, OrderSeriesState{
			StoreID:    id,
			Rates:      append(metrics.Series(nil), os.Rates...),
			Volume:     append(metrics.Series(nil), os.Volume...),
			TotalDelta: os.TotalDelta,
		})
	}
	ids = ids[:0]
	for id := range d.WatchedPSRs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := d.WatchedPSRs[id]
		st.WatchedPSRs = append(st.WatchedPSRs, WatchedStoreState{
			StoreID: id,
			Top100:  append(metrics.Series(nil), ws.Top100...),
			Top10:   append(metrics.Series(nil), ws.Top10...),
		})
	}
	return st
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedDaySet(m map[string]simclock.Day) []DomainDayEntry {
	out := make([]DomainDayEntry, 0, len(m))
	for k, d := range m {
		out = append(out, DomainDayEntry{Key: k, Day: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// restoreState overwrites a freshly allocated dataset (NewDataset output)
// with serialized observations. The restored incremental fingerprint is
// cross-checked against the from-scratch recompute, so a snapshot whose
// facts and digest disagree — survivable corruption the envelope checksum
// missed, or a schema drift — is rejected rather than silently resumed.
func (d *Dataset) restoreState(st DatasetState) error {
	days := d.SimDays
	if st.FaultsEnabled != d.FaultsEnabled {
		return fmt.Errorf("core: snapshot and world disagree on fault injection")
	}
	byVert := make(map[int]*VerticalObsState, len(st.Verticals))
	for i := range st.Verticals {
		byVert[st.Verticals[i].Vertical] = &st.Verticals[i]
	}
	for _, v := range brands.All() {
		vo := d.Verticals[v]
		vs, ok := byVert[int(v)]
		if !ok {
			return fmt.Errorf("core: snapshot missing vertical %d", int(v))
		}
		if len(vs.Top10PoisonedPct) != days || len(vs.Top100PoisonedPct) != days || len(vs.PenalizedPct) != days {
			return fmt.Errorf("core: vertical %d series span mismatch", int(v))
		}
		if len(vs.Attributed.Labels) != len(vs.Attributed.Layers) {
			return fmt.Errorf("core: vertical %d attributed labels/layers misaligned", int(v))
		}
		copy(vo.Top10PoisonedPct, vs.Top10PoisonedPct)
		copy(vo.Top100PoisonedPct, vs.Top100PoisonedPct)
		copy(vo.PenalizedPct, vs.PenalizedPct)
		vo.PSRObservations = vs.PSRObservations
		vo.LabeledObservations = vs.LabeledObservations
		vo.LabelEligible = vs.LabelEligible
		vo.Attributed = metrics.NewStacked(days)
		for i, label := range vs.Attributed.Labels {
			if len(vs.Attributed.Layers[i]) != days {
				return fmt.Errorf("core: vertical %d attributed layer %q span mismatch", int(v), label)
			}
			copy(vo.Attributed.Layer(label), vs.Attributed.Layers[i])
		}
		vo.DoorwaysSeen = setFrom(vs.DoorwaysSeen)
		vo.StoresSeen = setFrom(vs.StoresSeen)
		vo.CampaignsSeen = setFrom(vs.CampaignsSeen)
	}
	d.Campaigns = make(map[string]*CampaignObs, len(st.Campaigns))
	for _, cs := range st.Campaigns {
		if len(cs.PSRTop100) != days || len(cs.PSRTop10) != days || len(cs.LabeledPSRs) != days {
			return fmt.Errorf("core: campaign %q series span mismatch", cs.Name)
		}
		co := &CampaignObs{
			Name:        cs.Name,
			PSRTop100:   append(metrics.Series(nil), cs.PSRTop100...),
			PSRTop10:    append(metrics.Series(nil), cs.PSRTop10...),
			LabeledPSRs: append(metrics.Series(nil), cs.LabeledPSRs...),
			Doorways:    setFrom(cs.Doorways),
			StoresSeen:  setFrom(cs.StoresSeen),
			Verticals:   make(map[brands.Vertical]bool, len(cs.Verticals)),
		}
		for _, v := range cs.Verticals {
			co.Verticals[brands.Vertical(v)] = true
		}
		d.Campaigns[cs.Name] = co
	}
	if len(st.ChurnNew) != days || len(st.ChurnTotal) != days {
		return fmt.Errorf("core: churn series span mismatch")
	}
	copy(d.ChurnNew, st.ChurnNew)
	copy(d.ChurnTotal, st.ChurnTotal)
	d.DaysRun = st.DaysRun
	d.Seizures = append([]ObservedSeizure(nil), st.Seizures...)
	d.Reactions = append([]Reaction(nil), st.Reactions...)
	d.StoreFirstSeen = daySetFrom(st.StoreFirstSeen)
	d.DoorFirstSeen = daySetFrom(st.DoorFirstSeen)
	d.DoorLabeledOn = daySetFrom(st.DoorLabeledOn)
	d.SampledOrders = make(map[string]*OrderSeries, len(st.SampledOrders))
	for _, os := range st.SampledOrders {
		d.SampledOrders[os.StoreID] = &OrderSeries{
			StoreID:    os.StoreID,
			Rates:      append(metrics.Series(nil), os.Rates...),
			Volume:     append(metrics.Series(nil), os.Volume...),
			TotalDelta: os.TotalDelta,
		}
	}
	for _, ws := range st.WatchedPSRs {
		cur, ok := d.WatchedPSRs[ws.StoreID]
		if !ok {
			return fmt.Errorf("core: snapshot watches unknown store %q", ws.StoreID)
		}
		if len(ws.Top100) != days || len(ws.Top10) != days {
			return fmt.Errorf("core: watched store %q series span mismatch", ws.StoreID)
		}
		copy(cur.Top100, ws.Top100)
		copy(cur.Top10, ws.Top10)
	}
	if d.FaultsEnabled {
		if len(st.Coverage) != days || len(st.ObservedDays) != days {
			return fmt.Errorf("core: coverage span mismatch")
		}
		copy(d.Coverage, st.Coverage)
		copy(d.ObservedDays, st.ObservedDays)
	}
	d.fpIncr = st.FpIncr
	if got := d.RecomputeDayFingerprint(); got != st.FpIncr {
		return fmt.Errorf("core: restored dataset digest %016x does not match snapshot %016x", got, st.FpIncr)
	}
	return nil
}

func setFrom(keys []string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func daySetFrom(entries []DomainDayEntry) map[string]simclock.Day {
	m := make(map[string]simclock.Day, len(entries))
	for _, e := range entries {
		m[e.Key] = e.Day
	}
	return m
}
