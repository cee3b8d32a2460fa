package campaign

import (
	"fmt"

	"repro/internal/brands"
	"repro/internal/simclock"
)

// TailRoster generates the unclassified long tail of the ecosystem: SEO
// campaigns that poison results but were never hand-labeled, so the
// classifier has no class for them. In the paper these account for the
// ~42% of PSRs (and 89% of stores) left unattributed in Table 1. Tail
// campaigns use deliberately weak, stock-template signatures.
func TailRoster(w simclock.Window, n int) []*Spec {
	out := make([]*Spec, 0, n)
	days := w.Days()
	for i := 0; i < n; i++ {
		h := int(hash(fmt.Sprintf("tail/%d", i)))
		verts := tailVerticals(i)
		name := fmt.Sprintf("TAIL.%02d", i)
		out = append(out, &Spec{
			Name:      name,
			key:       keyOf(name),
			Doorways:  60 + h%520,
			Stores:    2 + h%14,
			Brands:    len(verts),
			PeakDays:  18 + (h/7)%80,
			Verticals: verts,
			Cloaking:  CloakingMode(h % 3),
			// Stock templates only: no kit markers for the model to latch
			// onto, which is what keeps these campaigns unclassifiable.
			Signature:    Signature{},
			PeakFrom:     simclock.Day((h / 13) % (days - 20)),
			ReactionDays: 6 + h%18,
		})
	}
	return out
}

// tailVerticals spreads the tail across all sixteen verticals so every
// vertical has an unclassified share.
func tailVerticals(i int) []brands.Vertical {
	all := brands.All()
	a := all[i%len(all)]
	b := all[(i*7+3)%len(all)]
	if a == b {
		return []brands.Vertical{a}
	}
	return []brands.Vertical{a, b}
}

// IsTail reports whether a spec belongs to the unlabeled tail.
func (s *Spec) IsTail() bool {
	return len(s.Name) > 5 && s.Name[:5] == "TAIL."
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h >> 1
}
