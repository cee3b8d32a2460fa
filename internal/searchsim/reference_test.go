package searchsim

import "sort"

// referenceSeenDomains is ExportState's SeenDomains as it was before the
// engine kept the sorted list across exports: every seen domain, sorted
// whole. ExportState must equal it.
func referenceSeenDomains(e *Engine) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := []string{}
	names := e.domains.Names()
	for id := range int32(len(names)) {
		if int(id) < e.seen.Len() && *e.seen.At(id) {
			out = append(out, names[id])
		}
	}
	sort.Strings(out)
	return out
}

// ReferenceSeenDomains exposes referenceSeenDomains to the external test
// that drives it from whole studies.
var ReferenceSeenDomains = referenceSeenDomains
