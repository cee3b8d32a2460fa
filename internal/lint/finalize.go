package lint

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
)

// Finalize prepares findings for emission: paths become module-relative
// with forward slashes (so -json artifacts are byte-identical across
// machines and operating systems) and every finding gets its stable ID.
//
// The ID hashes (analyzer, relative file, message) — deliberately not the
// line number, so a finding keeps its identity while unrelated edits move
// it around the file and annotation tooling tracks it instead of
// churning. When the same triple legitimately occurs more than
// once, later occurrences (in position order) get an ordinal suffix.
func Finalize(findings []Finding, root string) []Finding {
	out := make([]Finding, len(findings))
	copy(out, findings)
	for i := range out {
		if rel, err := filepath.Rel(root, out[i].File); err == nil && !filepath.IsAbs(rel) {
			out[i].File = filepath.ToSlash(rel)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	seen := make(map[string]int)
	for i := range out {
		base := findingID(out[i].Analyzer, out[i].File, out[i].Message)
		seen[base]++
		if n := seen[base]; n > 1 {
			out[i].ID = fmt.Sprintf("%s-%d", base, n)
		} else {
			out[i].ID = base
		}
	}
	return out
}

// findingID is a 64-bit FNV-1a over the identity triple, hex-encoded.
func findingID(analyzer, file, message string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", analyzer, file, message)
	return fmt.Sprintf("%016x", h.Sum64())
}
