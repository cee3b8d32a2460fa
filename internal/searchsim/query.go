package searchsim

import (
	"repro/internal/brands"
	"repro/internal/simclock"
)

// SERP returns a copy of the current result list for (vertical, term index).
func (e *Engine) SERP(v brands.Vertical, termIdx int) []Slot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	vs := e.verticals[v]
	if termIdx < 0 || termIdx >= len(vs.serps) {
		return nil
	}
	out := append([]Slot(nil), vs.serps[termIdx].slots...)
	for i := range out {
		out[i].Rank = i
	}
	return out
}

// EachSlot visits every current slot of a vertical in (term, rank) order.
// The callback must not retain the slot pointer.
//
// EachSlot holds the engine's read lock for the whole walk, so any number
// of goroutines may run EachSlot (and the other RLock readers, LabeledOn
// and ChurnToday) concurrently; the day pipeline's observe phase
// relies on this. Callbacks may call the read-side accessors (Go RWMutex
// read locks are recursive-safe as long as no writer is waiting) but must
// not call Label, Demote, or Advance: writers are excluded until every
// observe worker finishes its walk.
func (e *Engine) EachSlot(v brands.Vertical, fn func(termIdx, rank int, s *Slot)) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	vs := e.verticals[v]
	// One reused copy for the whole walk: &s escapes into fn, so a
	// per-slot copy would heap-allocate every slot of every SERP (the
	// observe phase's single largest allocation site before this hoist).
	var s Slot
	for ti, sp := range vs.serps {
		for rank := range sp.slots {
			s = sp.slots[rank]
			s.Rank = rank
			fn(ti, rank, &s)
		}
	}
}

// Demote removes a doorway domain from all results and blocks reinsertion —
// the search engine's strongest lever (§5.2.1).
func (e *Engine) Demote(domain string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.demoted[domain] = true
	// Slots are expelled on the next Advance; expel eagerly so the effect
	// is visible the same day.
	for _, vs := range e.verticals {
		for ti, sp := range vs.serps {
			for idx := range sp.slots {
				if sp.slots[idx].Poisoned() && sp.slots[idx].Domain == domain {
					e.replaceWithBenign(vs, ti, sp, idx)
				}
			}
		}
	}
}

// Label applies the "This site may be hacked" warning to a doorway domain
// starting on day d. Per Google's policy the label appears only on results
// whose URL is the site root (§5.2.2); deep-page results for the same
// domain remain unlabeled.
func (e *Engine) Label(domain string, d simclock.Day) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.labeled[domain]; dup {
		return
	}
	e.labeled[domain] = d
	for _, vs := range e.verticals {
		for _, sp := range vs.serps {
			for idx := range sp.slots {
				s := &sp.slots[idx]
				if s.Poisoned() && s.Domain == domain && s.Root {
					s.Labeled = true
				}
			}
		}
	}
}

// LabeledOn returns the day a domain was labeled, if it was.
func (e *Engine) LabeledOn(domain string) (simclock.Day, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, ok := e.labeled[domain]
	return d, ok
}

// ChurnToday returns (newly seen domains, total slots) for the last
// Advance, the §4.1.2 churn statistic.
func (e *Engine) ChurnToday() (newDomains, totalSlots int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.newToday, e.slotsToday
}
