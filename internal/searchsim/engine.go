// Package searchsim simulates the search engine surface the study crawls:
// for every (vertical, term) pair it maintains a persistent ranked list of
// the top-N results, which SEO campaigns push doorway pages into according
// to their scheduled intensity. Day-over-day persistence produces the low
// result churn the paper measured (≈1.84% newly seen domains per day), and
// the engine exposes the two intervention levers search providers hold:
// demoting doorways out of results and labeling results as hacked.
package searchsim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/brands"
	"repro/internal/campaign"
	"repro/internal/domid"
	"repro/internal/htmlgen"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// Config sizes the engine.
type Config struct {
	TermsPerVertical int
	SlotsPerTerm     int
	// Top10Prob is the probability a newly inserted doorway result lands in
	// the top 10 (the paper finds poisoning the top 10 harder than the top
	// 100).
	Top10Prob float64
	// ChurnProb is the per-day probability an existing doorway slot swaps
	// to a different doorway domain of the same campaign.
	ChurnProb float64
	// BenignChurnProb is the per-day probability a benign slot changes
	// domain.
	BenignChurnProb float64
	// Doorways split into two kit styles: "root-heavy" domains whose
	// ranked URLs are mostly the site root, and the rest, whose results
	// are almost all deep pages. This split is what the root-only hacked
	// label policy interacts with (§5.2.2). RootHeavyShare is the fraction
	// of doorway domains in the first style; RootProbHeavy/RootProbDeep
	// are the per-result root probabilities within each style.
	RootHeavyShare float64
	RootProbHeavy  float64
	RootProbDeep   float64
}

// DefaultConfig returns the study-scale configuration.
func DefaultConfig() Config {
	return Config{
		TermsPerVertical: 100,
		SlotsPerTerm:     100,
		Top10Prob:        0.07,
		ChurnProb:        0.015,
		BenignChurnProb:  0.004,
		RootHeavyShare:   0.18,
		RootProbHeavy:    0.67,
		RootProbDeep:     0.04,
	}
}

// Slot is one observable search result.
type Slot struct {
	Rank    int
	Domain  string
	URL     string
	Doorway *campaign.Doorway // nil for benign results
	ID      int32             // Domain's ID in the engine's Domains table
	Root    bool              // URL is the site root
	Labeled bool              // carries the "This site may be hacked" label
	// fresh marks a slot whose domain changed since the end-of-term walk
	// last saw it; only such a slot can carry a domain not yet seen.
	fresh bool
}

// Poisoned reports whether the slot is a doorway result.
func (s *Slot) Poisoned() bool { return s.Doorway != nil }

type serp struct {
	term  string
	slots []Slot
	// byCampaign tracks the slot indices each campaign currently holds.
	byCampaign map[string][]int
}

type verticalState struct {
	vertical brands.Vertical
	terms    []string
	serps    []*serp
	// specs are the campaigns targeting this vertical, with their doorway
	// pools restricted to it.
	specs []*campaign.Spec
	pools map[string][]*campaign.Doorway
}

// Engine is the simulated search engine. Not safe for concurrent Advance;
// reads are safe after Advance returns.
type Engine struct {
	cfg Config
	r   *rng.Source

	mu        sync.RWMutex
	day       simclock.Day
	verticals map[brands.Vertical]*verticalState
	demoted   map[string]bool         // doorway domains removed from results
	labeled   map[string]simclock.Day // doorway domain -> day labeled
	// seen (by domain ID), newToday and slotsToday track daily churn for
	// the §4.1.2 statistic.
	seen       domid.Column[bool]
	newToday   int
	slotsToday int
	// seenSorted is the seen domains sorted as of the last export (nil
	// until one), shared with that snapshot and never written in place;
	// seenAdded holds the domains added since. Only a study that exports
	// keeps them, so ExportState merges the day's few new domains in
	// instead of sorting every domain ever seen.
	seenSorted []string
	seenAdded  []string
	// domains names every domain a slot has held, by the ID slots carry.
	domains *domid.Table
}

// New builds an engine over the deployed campaigns and term sets. terms
// maps each vertical to its monitored term set (only the first
// cfg.TermsPerVertical terms are used).
//
//sslint:ignore hotalloc one-time study construction; the per-day hot path is Advance, and these maps live for the whole run
func New(cfg Config, r *rng.Source, deps []*campaign.Deployment, terms map[brands.Vertical][]string) *Engine {
	e := &Engine{
		cfg:       cfg,
		r:         r.Sub("searchsim"),
		verticals: make(map[brands.Vertical]*verticalState),
		demoted:   make(map[string]bool),
		labeled:   make(map[string]simclock.Day),
		domains:   new(domid.Table),
	}
	for _, v := range brands.All() {
		ts := terms[v]
		if len(ts) > cfg.TermsPerVertical {
			ts = ts[:cfg.TermsPerVertical]
		}
		vs := &verticalState{
			vertical: v,
			terms:    ts,
			pools:    make(map[string][]*campaign.Doorway),
		}
		for _, dep := range deps {
			if !dep.Spec.Targets(v) {
				continue
			}
			vs.specs = append(vs.specs, dep.Spec)
			var pool []*campaign.Doorway
			for _, dw := range dep.Doorways {
				if dw.Vertical == v {
					pool = append(pool, dw)
				}
			}
			if len(pool) == 0 {
				pool = dep.Doorways
			}
			vs.pools[dep.Spec.Key()] = pool
		}
		for i, term := range vs.terms {
			sp := &serp{term: term, byCampaign: make(map[string][]int)}
			sp.slots = make([]Slot, cfg.SlotsPerTerm)
			for k := range sp.slots {
				sp.slots[k] = e.benignSlot(v, i, k)
			}
			vs.serps = append(vs.serps, sp)
		}
		e.verticals[v] = vs
	}
	return e
}

// benignSlot synthesises a benign result for (vertical, term index, rank).
//
//sslint:ignore hotalloc domain format is pinned by the golden fingerprints and runs per churned slot at day boundaries, not per page
func (e *Engine) benignSlot(v brands.Vertical, termIdx, rank int) Slot {
	dom := fmt.Sprintf("site%d-%d.v%d.example.org", termIdx, e.r.Intn(1<<20), int(v))
	return Slot{Rank: rank, Domain: dom, ID: e.domains.Intern(dom), URL: "http://" + dom + "/", Root: true, fresh: true}
}

// Domains returns the table naming the IDs slots carry. It only grows:
// Advance and RestoreState intern each domain a slot takes.
func (e *Engine) Domains() *domid.Table { return e.domains }

// capacity is the number of result slots per SERP a campaign can hold in a
// vertical at full intensity, scaled by the size of its doorway pool there
// (more doorways -> more distinct domains to rank, with diminishing
// returns and a cap; the paper notes doorway count correlates only weakly
// with efficacy).
func capacity(poolSize, slotsPerTerm int) float64 {
	c := 2 + 0.5*sqrtf(poolSize)
	maxC := 0.22 * float64(slotsPerTerm)
	if c > maxC {
		c = maxC
	}
	return c
}

// maxPoisonedShare bounds how much of one SERP campaigns can hold in total:
// they compete with each other and with legitimate results for rankings, so
// demand beyond this share is scaled down proportionally (the paper's worst
// verticals peaked at 31-42%% of the top 100).
const maxPoisonedShare = 0.45

// rootHeavy deterministically assigns a doorway domain to the root-heavy
// kit style.
func rootHeavy(domain string, share float64) bool {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= 1099511628211
	}
	return float64(h%10000)/10000 < share
}

func sqrtf(n int) float64 {
	if n <= 0 {
		return 0
	}
	x := float64(n)
	guess := x
	for i := 0; i < 24; i++ {
		guess = (guess + x/guess) / 2
	}
	return guess
}

// Advance moves the engine to the given day: campaigns' slot counts track
// their scheduled intensity, churn rotates domains, and demoted doorways
// are expelled.
func (e *Engine) Advance(day simclock.Day) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.day = day
	e.newToday = 0
	e.slotsToday = 0
	for _, v := range brands.All() {
		vs := e.verticals[v]
		for si, sp := range vs.serps {
			e.advanceSERP(vs, si, sp, day)
		}
	}
}

func (e *Engine) advanceSERP(vs *verticalState, termIdx int, sp *serp, day simclock.Day) {
	// Campaigns bid for slots; when their combined demand exceeds the
	// ranking headroom, everyone is squeezed proportionally.
	demands := make([]float64, len(vs.specs))
	var totalDemand float64
	for i, spec := range vs.specs {
		pool := vs.pools[spec.Key()]
		demands[i] = spec.Intensity(vs.vertical, day) * capacity(len(pool), e.cfg.SlotsPerTerm)
		totalDemand += demands[i]
	}
	headroom := maxPoisonedShare * float64(e.cfg.SlotsPerTerm)
	squeeze := 1.0
	if totalDemand > headroom {
		squeeze = headroom / totalDemand
	}
	for i, spec := range vs.specs {
		key := spec.Key()
		pool := vs.pools[key]
		want := int(demands[i]*squeeze + e.r.Float64()*0.8)
		have := len(sp.byCampaign[key])
		switch {
		case want > have:
			for n := have; n < want; n++ {
				e.insertDoorway(vs, sp, spec, pool, day)
			}
		case want < have:
			for n := have; n > want; n-- {
				e.removeOneDoorway(vs, termIdx, sp, key)
			}
		}
		// Expel demoted doorways regardless of targets.
		idxs := sp.byCampaign[key]
		for i := 0; i < len(idxs); {
			slotIdx := idxs[i]
			if e.demoted[sp.slots[slotIdx].Domain] {
				e.replaceWithBenign(vs, termIdx, sp, slotIdx)
				idxs = sp.byCampaign[key]
				continue
			}
			i++
		}
		// Top-10 suppression: move slots out of ranks 0..9.
		if spec.Top10Suppressed(day) {
			e.suppressTop10(vs, termIdx, sp, key)
		}
		// Churn: swap some doorway domains for fresh ones.
		for _, slotIdx := range sp.byCampaign[key] {
			if e.r.Bool(e.cfg.ChurnProb) && len(pool) > 1 {
				e.assignDoorway(&sp.slots[slotIdx], sp.term, spec, pool)
			}
		}
	}
	// Benign churn and label refresh; also count churn statistics.
	for k := range sp.slots {
		s := &sp.slots[k]
		if !s.Poisoned() && e.r.Bool(e.cfg.BenignChurnProb) {
			*s = e.benignSlot(vs.vertical, termIdx, k)
		}
		if s.Poisoned() {
			_, lab := e.labeled[s.Domain]
			s.Labeled = lab && s.Root
		}
		e.slotsToday++
		// Only a slot whose domain changed can bring a new domain: a
		// walked one's domain is already seen.
		if s.fresh && e.markSeen(s.ID) {
			e.newToday++
			if e.seenSorted != nil {
				e.seenAdded = append(e.seenAdded, s.Domain)
			}
		}
		s.fresh = false
	}
}

// markSeen adds a domain to the seen set, reporting whether it is new.
func (e *Engine) markSeen(id int32) bool {
	e.seen.Grow(int(id) + 1)
	seen := e.seen.At(id)
	if *seen {
		return false
	}
	*seen = true
	return true
}

// isSeen reports whether a domain is in the seen set.
func (e *Engine) isSeen(id int32) bool {
	return int(id) < e.seen.Len() && *e.seen.At(id)
}

// seenNames returns every seen domain, sorted.
func (e *Engine) seenNames() []string {
	names := e.domains.Names()
	out := make([]string, 0, len(names))
	for id := range int32(len(names)) {
		if e.isSeen(id) {
			out = append(out, names[id])
		}
	}
	sort.Strings(out)
	return out
}

// insertDoorway converts a benign slot into a doorway result.
func (e *Engine) insertDoorway(vs *verticalState, sp *serp, spec *campaign.Spec, pool []*campaign.Doorway, day simclock.Day) {
	idx := e.pickBenignIndex(sp, spec.Top10Suppressed(day))
	if idx < 0 {
		return
	}
	s := &sp.slots[idx]
	s.Rank = idx
	e.assignDoorway(s, sp.term, spec, pool)
	key := spec.Key()
	sp.byCampaign[key] = append(sp.byCampaign[key], idx)
}

// assignDoorway points a slot at a (fresh) doorway of the campaign,
// skipping demoted domains when possible.
func (e *Engine) assignDoorway(s *Slot, term string, spec *campaign.Spec, pool []*campaign.Doorway) {
	var dw *campaign.Doorway
	for tries := 0; tries < 6; tries++ {
		cand := pool[e.r.Intn(len(pool))]
		if !e.demoted[cand.Domain] {
			dw = cand
			break
		}
	}
	if dw == nil {
		return
	}
	s.Doorway = dw
	s.Domain = dw.Domain
	s.ID = e.domains.Intern(dw.Domain)
	s.fresh = true
	rootProb := e.cfg.RootProbDeep
	if rootHeavy(dw.Domain, e.cfg.RootHeavyShare) {
		rootProb = e.cfg.RootProbHeavy
	}
	s.Root = e.r.Bool(rootProb)
	if s.Root {
		s.URL = "http://" + dw.Domain + "/"
	} else {
		s.URL = "http://" + dw.Domain + htmlgen.DoorwayPath(spec.Signature, term)
	}
	_, lab := e.labeled[s.Domain]
	s.Labeled = lab && s.Root
}

// pickBenignIndex selects a benign slot to displace, honouring the top-10
// insertion bias and suppression.
func (e *Engine) pickBenignIndex(sp *serp, suppressTop10 bool) int {
	n := len(sp.slots)
	top10 := !suppressTop10 && e.r.Bool(e.cfg.Top10Prob)
	for tries := 0; tries < 25; tries++ {
		var idx int
		if top10 && n > 10 {
			idx = e.r.Intn(10)
		} else if n > 10 {
			idx = 10 + e.r.Intn(n-10)
		} else {
			idx = e.r.Intn(n)
		}
		if !sp.slots[idx].Poisoned() {
			return idx
		}
	}
	for idx := n - 1; idx >= 0; idx-- {
		if !sp.slots[idx].Poisoned() {
			return idx
		}
	}
	return -1
}

// removeOneDoorway demotes the campaign's lowest-ranked slot back to benign.
func (e *Engine) removeOneDoorway(vs *verticalState, termIdx int, sp *serp, key string) {
	idxs := sp.byCampaign[key]
	if len(idxs) == 0 {
		return
	}
	worst := 0
	for i, idx := range idxs {
		if idx > idxs[worst] {
			worst = i
		}
	}
	e.replaceWithBenign(vs, termIdx, sp, idxs[worst])
}

// replaceWithBenign restores a slot to a benign result and fixes indices.
func (e *Engine) replaceWithBenign(vs *verticalState, termIdx int, sp *serp, slotIdx int) {
	old := sp.slots[slotIdx]
	if old.Doorway != nil {
		key := old.Doorway.Campaign.Key()
		idxs := sp.byCampaign[key]
		for i, idx := range idxs {
			if idx == slotIdx {
				idxs[i] = idxs[len(idxs)-1]
				sp.byCampaign[key] = idxs[:len(idxs)-1]
				break
			}
		}
	}
	sp.slots[slotIdx] = e.benignSlot(vs.vertical, termIdx, slotIdx)
}

// suppressTop10 moves a campaign's slots out of ranks 0-9 by swapping them
// with benign slots below.
func (e *Engine) suppressTop10(vs *verticalState, termIdx int, sp *serp, key string) {
	idxs := sp.byCampaign[key]
	for i, slotIdx := range idxs {
		if slotIdx >= 10 {
			continue
		}
		// Find a benign slot at rank >= 10 to swap with.
		dst := -1
		for tries := 0; tries < 20; tries++ {
			cand := 10 + e.r.Intn(len(sp.slots)-10)
			if !sp.slots[cand].Poisoned() {
				dst = cand
				break
			}
		}
		if dst < 0 {
			e.replaceWithBenign(vs, termIdx, sp, slotIdx)
			idxs = sp.byCampaign[key]
			continue
		}
		sp.slots[slotIdx], sp.slots[dst] = sp.slots[dst], sp.slots[slotIdx]
		sp.slots[slotIdx].Rank = slotIdx
		sp.slots[dst].Rank = dst
		idxs[i] = dst
	}
}
