package searchsim

import "sort"

// referenceSeenDomains is ExportState's SeenDomains as it was before the
// engine kept the sorted list across exports: every seen domain, sorted
// from the map. ExportState must equal it.
func referenceSeenDomains(e *Engine) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.seenDomains))
	for k := range e.seenDomains {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ReferenceSeenDomains exposes referenceSeenDomains to the external test
// that drives it from whole studies.
var ReferenceSeenDomains = referenceSeenDomains
