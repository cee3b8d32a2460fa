package intervention

import (
	"repro/internal/campaign"
	"repro/internal/searchsim"
	"repro/internal/simclock"
)

// Labeler models the search engine's anti-abuse pipeline of §5.2: doorways
// discovered performing black-hat SEO are (sometimes) labeled "This site
// may be hacked" after a detection delay, and campaigns can be mass-demoted
// (the KEY event). Decisions are deterministic per domain so re-running a
// study reproduces them exactly.
type Labeler struct {
	// LabelProb is the probability a poisoned doorway domain ever receives
	// the hacked label. The paper found coverage very low (≈2.5% of PSRs).
	LabelProb float64
	// DelayMinDays/DelayMaxDays bound the detection delay between a
	// doorway's first appearance and its labeling (§5.2.2: 13–32 days).
	DelayMinDays int
	DelayMaxDays int
	// MassDemoteProb/MassLabelProb govern the KEY-style event: on a
	// campaign's DemotedOn day, this share of its doorways is demoted
	// outright, and this share of the survivors is labeled.
	MassDemoteProb float64
	MassLabelProb  float64

	firstSeen map[string]simclock.Day
	rootSeen  map[string]simclock.Day // first sighting at the site root
	armedOn   map[string]simclock.Day // first day the domain looked labelable
	obsTotal  map[string]int
	obsRoot   map[string]int
	demoted   map[string]bool
}

// NewLabeler returns a labeler with the paper-calibrated policy.
func NewLabeler() *Labeler {
	return &Labeler{
		LabelProb:      0.30,
		DelayMinDays:   13,
		DelayMaxDays:   32,
		MassDemoteProb: 0.75,
		MassLabelProb:  0.5,
		firstSeen:      make(map[string]simclock.Day),
		rootSeen:       make(map[string]simclock.Day),
		armedOn:        make(map[string]simclock.Day),
		obsTotal:       make(map[string]int),
		obsRoot:        make(map[string]int),
		demoted:        make(map[string]bool),
	}
}

// Observe records that a doorway domain was present in search results on
// the given day (first sighting arms the detection clock). root marks
// whether the observed result URL was the site root: Google's pipeline
// labels the root result, so only domains that actually surface their root
// can ever carry the label.
func (l *Labeler) Observe(domain string, day simclock.Day, root bool) {
	if _, seen := l.firstSeen[domain]; !seen {
		l.firstSeen[domain] = day
	}
	l.obsTotal[domain]++
	if root {
		l.obsRoot[domain]++
		if _, seen := l.rootSeen[domain]; !seen {
			l.rootSeen[domain] = day
		}
	}
	if _, armed := l.armedOn[domain]; !armed && l.rootDominant(domain) {
		l.armedOn[domain] = day
	}
}

// DetectionArmedOn returns the day a domain first presented the labelable
// (root-dominant) profile to the pipeline.
func (l *Labeler) DetectionArmedOn(domain string) (simclock.Day, bool) {
	d, ok := l.armedOn[domain]
	return d, ok
}

// rootDominant reports whether a domain's observed results are mostly its
// root page, with enough evidence to trust the profile — Google's pipeline
// labels sites whose hacked root persistently ranks. Doorways ranking only
// deep pages (almost) never qualify, which is the policy gap §5.2.2
// quantifies.
func (l *Labeler) rootDominant(domain string) bool {
	return l.obsRoot[domain]*2 >= l.obsTotal[domain] && l.obsRoot[domain] >= 3
}

// delayFor derives the deterministic per-domain detection delay.
func (l *Labeler) delayFor(domain string) int {
	span := l.DelayMaxDays - l.DelayMinDays + 1
	if span < 1 {
		span = 1
	}
	return l.DelayMinDays + int(hashString("delay/"+domain)%uint64(span))
}

// chosen decides deterministically whether a domain is ever labeled.
func (l *Labeler) chosen(domain string) bool {
	return float64(hashString("label/"+domain)%10000)/10000 < l.LabelProb
}

// Tick applies the day's labeling decisions and mass-demotion events to the
// search engine. specs supplies the campaign roster for event lookups.
func (l *Labeler) Tick(day simclock.Day, eng *searchsim.Engine, specs []*campaign.Spec, deps []*campaign.Deployment) {
	for dom, armed := range l.armedOn {
		if l.demoted[dom] {
			continue
		}
		if _, already := eng.LabeledOn(dom); already {
			continue
		}
		if int(day-armed) >= l.delayFor(dom) && l.chosen(dom) {
			eng.Label(dom, day)
		}
	}
	for _, dep := range deps {
		if dep.Spec.DemotedOn == 0 || dep.Spec.DemotedOn != day {
			continue
		}
		for _, dw := range dep.Doorways {
			h := float64(hashString("mass/"+dw.Domain)%10000) / 10000
			switch {
			case h < l.MassDemoteProb:
				eng.Demote(dw.Domain)
				l.demoted[dw.Domain] = true
			case h < l.MassDemoteProb+(1-l.MassDemoteProb)*l.MassLabelProb:
				if l.rootDominant(dw.Domain) {
					eng.Label(dw.Domain, day)
				}
			}
		}
	}
}
