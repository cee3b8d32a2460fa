package lint

import (
	"encoding/json"
	"sort"
)

// helpBaseURI anchors rule documentation to DESIGN.md §6. The repo has no
// canonical public host, so the authority is the RFC 2606 reserved
// ".invalid" TLD: the URI stays absolute (the SARIF schema requires
// format "uri" for helpUri) while the path and fragment name the in-repo
// doc anchor — strip the host and the link resolves against a checkout.
const helpBaseURI = "https://repro.invalid/DESIGN.md"

// SARIF serializes finalized findings as a minimal, valid SARIF 2.1.0 log
// — the format GitHub code scanning and most CI annotators ingest. One
// run, one tool ("sslint"), one reportingDescriptor per analyzer that
// actually fired, results carrying the stable finding ID as a partial
// fingerprint so annotation platforms track findings across commits.
func SARIF(findings []Finding) ([]byte, error) {
	type sarifMessage struct {
		Text string `json:"text"`
	}
	type sarifRule struct {
		ID               string       `json:"id"`
		Name             string       `json:"name,omitempty"`
		ShortDescription sarifMessage `json:"shortDescription"`
		HelpURI          string       `json:"helpUri,omitempty"`
	}
	type sarifArtifactLocation struct {
		URI       string `json:"uri"`
		URIBaseID string `json:"uriBaseId,omitempty"`
	}
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
	}
	type sarifPhysicalLocation struct {
		ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
		Region           sarifRegion           `json:"region"`
	}
	type sarifLocation struct {
		PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID              string            `json:"ruleId"`
		Level               string            `json:"level"`
		Message             sarifMessage      `json:"message"`
		Locations           []sarifLocation   `json:"locations"`
		PartialFingerprints map[string]string `json:"partialFingerprints,omitempty"`
	}
	type sarifDriver struct {
		Name           string      `json:"name"`
		InformationURI string      `json:"informationUri,omitempty"`
		Rules          []sarifRule `json:"rules"`
	}
	type sarifTool struct {
		Driver sarifDriver `json:"driver"`
	}
	type sarifRun struct {
		Tool    sarifTool     `json:"tool"`
		Results []sarifResult `json:"results"`
	}
	type sarifLog struct {
		Schema  string     `json:"$schema"`
		Version string     `json:"version"`
		Runs    []sarifRun `json:"runs"`
	}

	// The full rule registry ships on every run — clean logs included —
	// so code-scanning UIs always have the metadata to render, and a
	// ruleId in results always resolves. "sslint" is the pseudo-rule the
	// directive checker reports under.
	docs := make(map[string]string)
	for _, a := range All() {
		docs[a.Name] = firstDocLine(a.Doc)
	}
	docs["sslint"] = "directive hygiene: malformed, unknown or unused //sslint:ignore"

	rules := make([]sarifRule, 0, len(docs))
	for name, desc := range docs {
		anchor := "#sslint-" + name
		if name == "sslint" {
			anchor = "#sslint-directives"
		}
		rules = append(rules, sarifRule{
			ID:               name,
			Name:             name,
			ShortDescription: sarifMessage{Text: desc},
			HelpURI:          helpBaseURI + anchor,
		})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := []sarifResult{}
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       f.File,
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: f.Line, StartColumn: f.Column},
				},
			}},
			PartialFingerprints: map[string]string{"sslintId": f.ID},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "sslint", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}

// firstDocLine returns the summary line of an analyzer doc string.
func firstDocLine(s string) string {
	for i := range s {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
