package searchsim

import (
	"fmt"
	"sort"

	"repro/internal/brands"
	"repro/internal/campaign"
	"repro/internal/shard"
	"repro/internal/simclock"
)

// This file exports and restores the engine's mutable state for durable
// checkpoints. The engine's wiring (terms, campaign specs, doorway pools) is
// rebuilt deterministically by New from the study config, so only the state
// that a run mutates is captured: the RNG position, every SERP's slots and
// per-campaign slot indices, and the demote/label/churn bookkeeping.

// SlotState is one serialized search result. Doorway identity is carried by
// domain and resolved back to the campaign's *Doorway on restore.
type SlotState struct {
	Domain        string
	URL           string
	DoorwayDomain string `json:",omitempty"` // "" for benign slots
	Root          bool
	Labeled       bool
}

// CampaignSlots records which slot indices a campaign holds in one SERP.
// Index order is significant — the churn and suppression loops iterate it
// while drawing from the sequential RNG — and is preserved verbatim.
type CampaignSlots struct {
	Key  string
	Idxs []int
}

// SERPState is one serialized result page.
type SERPState struct {
	Slots     []SlotState
	Campaigns []CampaignSlots // sorted by Key; Idxs order verbatim
}

// VerticalSERPs holds one vertical's result pages in term order.
type VerticalSERPs struct {
	Vertical int
	SERPs    []SERPState
}

// DomainDay pairs a domain with a day, for serialized day-keyed maps.
type DomainDay struct {
	Domain string
	Day    simclock.Day
}

// EngineState is the engine's complete mutable state.
type EngineState struct {
	Day         simclock.Day
	RNG         [4]uint64
	Verticals   []VerticalSERPs // sorted by Vertical
	Demoted     []string        // sorted
	Labeled     []DomainDay     // sorted by Domain
	SeenDomains []string        // sorted
	NewToday    int
	SlotsToday  int
}

// ExportState captures the engine's mutable state. Safe to call between
// Advance calls (it takes the write lock: it advances the sorted
// seen-domain list).
func (e *Engine) ExportState() EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineState{
		Day:        e.day,
		RNG:        e.r.State(),
		NewToday:   e.newToday,
		SlotsToday: e.slotsToday,
	}
	for _, v := range brands.All() {
		vs := e.verticals[v]
		vst := VerticalSERPs{Vertical: int(v)}
		for _, sp := range vs.serps {
			ss := SERPState{Slots: make([]SlotState, len(sp.slots))}
			for i, s := range sp.slots {
				ss.Slots[i] = SlotState{Domain: s.Domain, URL: s.URL, Root: s.Root, Labeled: s.Labeled}
				if s.Doorway != nil {
					ss.Slots[i].DoorwayDomain = s.Doorway.Domain
				}
			}
			keys := make([]string, 0, len(sp.byCampaign))
			for k := range sp.byCampaign {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				ss.Campaigns = append(ss.Campaigns, CampaignSlots{Key: k, Idxs: append([]int(nil), sp.byCampaign[k]...)})
			}
			vst.SERPs = append(vst.SERPs, ss)
		}
		st.Verticals = append(st.Verticals, vst)
	}
	st.Demoted = sortedKeys(e.demoted)
	for dom, d := range e.labeled {
		st.Labeled = append(st.Labeled, DomainDay{Domain: dom, Day: d})
	}
	sort.Slice(st.Labeled, func(i, j int) bool { return st.Labeled[i].Domain < st.Labeled[j].Domain })
	if e.seenSorted == nil {
		e.seenSorted = sortedKeys(e.seenDomains)
	} else {
		e.seenSorted = shard.MergeSorted(e.seenSorted, e.seenAdded)
		e.seenAdded = e.seenAdded[:0]
	}
	st.SeenDomains = e.seenSorted
	return st
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RestoreState overwrites the engine's mutable state with a previously
// exported snapshot. The engine must have been built by New over the same
// config and campaign roster; shape mismatches are reported, not patched.
// resolve maps a doorway domain back to the deployed doorway (the world's
// domain index); it is consulted only for poisoned slots.
func (e *Engine) RestoreState(st EngineState, resolve func(domain string) *campaign.Doorway) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seenDomains = make(map[string]bool, len(st.SeenDomains))
	for _, d := range st.SeenDomains {
		e.seenDomains[d] = true
	}
	byVert := make(map[int]VerticalSERPs, len(st.Verticals))
	for _, vst := range st.Verticals {
		byVert[vst.Vertical] = vst
	}
	for _, v := range brands.All() {
		vs := e.verticals[v]
		vst, ok := byVert[int(v)]
		if !ok {
			return fmt.Errorf("searchsim: snapshot missing vertical %d", int(v))
		}
		if len(vst.SERPs) != len(vs.serps) {
			return fmt.Errorf("searchsim: vertical %d has %d serps, snapshot has %d", int(v), len(vs.serps), len(vst.SERPs))
		}
		for si, ss := range vst.SERPs {
			sp := vs.serps[si]
			if len(ss.Slots) != len(sp.slots) {
				return fmt.Errorf("searchsim: vertical %d serp %d has %d slots, snapshot has %d", int(v), si, len(sp.slots), len(ss.Slots))
			}
			for i, sl := range ss.Slots {
				// A slot whose domain is not yet seen has not been walked
				// since it changed (a day-0 snapshot's slots never were).
				slot := Slot{Rank: i, Domain: sl.Domain, URL: sl.URL, Root: sl.Root, Labeled: sl.Labeled, fresh: !e.seenDomains[sl.Domain]}
				if sl.DoorwayDomain != "" {
					dw := resolve(sl.DoorwayDomain)
					if dw == nil {
						return fmt.Errorf("searchsim: snapshot references unknown doorway %q", sl.DoorwayDomain)
					}
					slot.Doorway = dw
				}
				sp.slots[i] = slot
			}
			sp.byCampaign = make(map[string][]int, len(ss.Campaigns))
			for _, cs := range ss.Campaigns {
				sp.byCampaign[cs.Key] = append([]int(nil), cs.Idxs...)
			}
		}
	}
	e.day = st.Day
	e.r.Restore(st.RNG)
	e.newToday = st.NewToday
	e.slotsToday = st.SlotsToday
	e.demoted = make(map[string]bool, len(st.Demoted))
	for _, d := range st.Demoted {
		e.demoted[d] = true
	}
	e.labeled = make(map[string]simclock.Day, len(st.Labeled))
	for _, ld := range st.Labeled {
		e.labeled[ld.Domain] = ld.Day
	}
	// A list out of order (a hand-made snapshot) is not a merge base; the
	// next export then sorts the set from the map.
	e.seenSorted, e.seenAdded = nil, nil
	if shard.StrictlySorted(st.SeenDomains) {
		e.seenSorted = st.SeenDomains
	}
	return nil
}
