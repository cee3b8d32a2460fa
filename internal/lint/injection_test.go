package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// preV3Suite is the eight-analyzer suite as it stood before the
// state-integrity analyzers landed. Each injection test below runs it as
// a control: the smuggled violation must be invisible to the old suite
// and caught by the new analyzer, or the new analyzer adds nothing.
func preV3Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lint.CtxFlow, lint.MapOrder, lint.NilTelemetry, lint.NoWallTime,
		lint.PoolOnly, lint.Purity, lint.RaceCapture, lint.SeededRand,
	}
}

// TestInjectedUnsnapshottedFieldIsCaught proves snapshotfields closes the
// schema-drift hole: a mutable field added to a checkpointed type but
// forgotten in both halves of its Export/Restore pair — the exact bug
// class that resumes a study almost-bit-identically — is two findings at
// the field, and invisible to the old suite.
func TestInjectedUnsnapshottedFieldIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/crawler": {{
			Name: "zz_injected_gauge.go",
			Src: `package crawler

// zzGauge mimics a stats field bolted onto the crawl path: val made it
// into the snapshot, peak did not.
type zzGauge struct {
	val  int64
	peak int64
}

func (g *zzGauge) bump(d int64) {
	g.val += d
	if g.val > g.peak {
		g.peak = g.val
	}
}

type zzGaugeState struct{ Val int64 }

func (g *zzGauge) ExportState() zzGaugeState    { return zzGaugeState{Val: g.val} }
func (g *zzGauge) RestoreState(st zzGaugeState) { g.val = st.Val }
`,
		}},
	}
	pkgs, err := loader.Load("./internal/crawler")
	if err != nil {
		t.Fatalf("loading crawler with injected field: %v", err)
	}

	base, err := lint.Run(pkgs, preV3Suite(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running pre-v3 suite: %v", err)
	}
	if len(base) != 0 {
		t.Fatalf("pre-v3 suite reported the un-snapshotted field — the control is broken: %+v", base)
	}

	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var missExport, missRestore bool
	for _, f := range findings {
		if f.Analyzer != lint.SnapshotFields.Name || filepath.Base(f.File) != "zz_injected_gauge.go" {
			continue
		}
		if strings.Contains(f.Message, "field peak of zzGauge") && strings.Contains(f.Message, "never read by ExportState") {
			missExport = true
		}
		if strings.Contains(f.Message, "field peak of zzGauge") && strings.Contains(f.Message, "never written by RestoreState") {
			missRestore = true
		}
	}
	if !missExport || !missRestore {
		t.Fatalf("smuggled field not fully caught (export=%v restore=%v); findings: %+v", missExport, missRestore, findings)
	}
}

// TestInjectedSendWhileLockedIsCaught proves lockdiscipline bites in the
// real studysvc package: a Manager method sending on a channel while
// holding m.mu — a wedge waiting for one slow receiver — is a finding,
// and the old suite (which never scoped studysvc at all) says nothing.
func TestInjectedSendWhileLockedIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/studysvc": {{
			Name: "zz_injected_broadcast.go",
			Src: `package studysvc

// zzBroadcast blocks every Manager caller behind one slow subscriber.
func (m *Manager) zzBroadcast(ch chan<- string, msg string) {
	m.mu.Lock()
	ch <- msg
	m.mu.Unlock()
}
`,
		}},
	}
	pkgs, err := loader.Load("./internal/studysvc")
	if err != nil {
		t.Fatalf("loading studysvc with injected send: %v", err)
	}

	base, err := lint.Run(pkgs, preV3Suite(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running pre-v3 suite: %v", err)
	}
	if len(base) != 0 {
		t.Fatalf("pre-v3 suite reported the send-while-locked — the control is broken: %+v", base)
	}

	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var hit []lint.Finding
	for _, f := range findings {
		if f.Analyzer == lint.LockDiscipline.Name && filepath.Base(f.File) == "zz_injected_broadcast.go" {
			hit = append(hit, f)
		}
	}
	if len(hit) != 1 || !strings.Contains(hit[0].Message, "channel send while holding m.mu") {
		t.Fatalf("injected send-while-locked not caught; findings: %+v", findings)
	}
}

// TestInjectedSprintfInHtmlgenIsCaught proves hotalloc guards the
// zero-alloc property statically: one fmt.Sprintf added to htmlgen — the
// regression the AllocsPerRun gates only catch once the code runs — is a
// finding, and the old suite passes it clean.
func TestInjectedSprintfInHtmlgenIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/htmlgen": {{
			Name: "zz_injected_sprintf.go",
			Src: `package htmlgen

import "fmt"

// zzTitle allocates a fresh string per page render.
func zzTitle(rank int, domain string) string {
	return fmt.Sprintf("%d-%s", rank, domain)
}
`,
		}},
	}
	pkgs, err := loader.Load("./internal/htmlgen")
	if err != nil {
		t.Fatalf("loading htmlgen with injected Sprintf: %v", err)
	}

	base, err := lint.Run(pkgs, preV3Suite(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running pre-v3 suite: %v", err)
	}
	if len(base) != 0 {
		t.Fatalf("pre-v3 suite reported the Sprintf — the control is broken: %+v", base)
	}

	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var hit []lint.Finding
	for _, f := range findings {
		if f.Analyzer == lint.HotAlloc.Name && filepath.Base(f.File) == "zz_injected_sprintf.go" {
			hit = append(hit, f)
		}
	}
	if len(hit) != 1 || !strings.Contains(hit[0].Message, "fmt.Sprintf") {
		t.Fatalf("injected Sprintf not caught; findings: %+v", findings)
	}
}

// preV4Suite is the thirteen-analyzer suite as it stood before the
// contract-drift gate landed: everything except the wireschema,
// exhaustive and errflow analyzers. The v4 injection tests run it as the control.
func preV4Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lint.APICodes, lint.CtxFlow, lint.FaultBoundary, lint.HotAlloc,
		lint.LockDiscipline, lint.MapOrder, lint.NilTelemetry,
		lint.NoWallTime, lint.PoolOnly, lint.Purity, lint.RaceCapture,
		lint.SeededRand, lint.SnapshotFields,
	}
}

// doctoredGolden copies the module-root api.schema.json into a temp file
// after applying edit to its parsed JSON, and returns a DefaultScope whose
// wireschema golden points at the doctored copy — "yesterday's pin",
// against which today's code has drifted.
func doctoredGolden(t *testing.T, edit func(types map[string]map[string]string)) *lint.Scope {
	t.Helper()
	base := lint.APISchemaFile
	raw, err := os.ReadFile(filepath.Join(moduleRoot(t), base))
	if err != nil {
		t.Fatalf("reading %s: %v", base, err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing %s: %v", base, err)
	}
	types := make(map[string]map[string]string)
	for key, v := range doc["types"].(map[string]any) {
		fields := make(map[string]string)
		for name, desc := range v.(map[string]any) {
			fields[name] = desc.(string)
		}
		types[key] = fields
	}
	edit(types)
	doc["types"] = types
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), base)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	scope := lint.DefaultScope()
	scope.Goldens[lint.WireSchema.Name] = path
	return scope
}

// TestInjectedFieldRenameIsCaught proves wireschema closes the
// silent-API-revision hole: against a golden pinning the old wire name
// ("message_legacy"), today's apiError reads as a breaking remove plus an
// unpinned add — and an injected diagnostics route is an additive finding
// too. The pre-v4 suite sees none of it.
func TestInjectedFieldRenameIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/studysvc": {{
			Name: "zz_injected_route.go",
			Src: `package studysvc

import "net/http"

// zzLoadavg is a diagnostics payload bolted on without re-pinning.
type zzLoadavg struct {
	Load1 float64 ` + "`json:\"load1\"`" + `
}

func zzRegister(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/admin/loadavg", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, zzLoadavg{})
	})
}
`,
		}},
	}
	pkgs, err := loader.Load("./internal/studysvc")
	if err != nil {
		t.Fatalf("loading studysvc with injected route: %v", err)
	}

	scope := doctoredGolden(t, func(types map[string]map[string]string) {
		fields := types["repro/internal/studysvc.apiError"]
		fields["message_legacy"] = fields["message"]
		delete(fields, "message")
	})

	base, err := lint.Run(pkgs, preV4Suite(), scope)
	if err != nil {
		t.Fatalf("running pre-v4 suite: %v", err)
	}
	if len(base) != 0 {
		t.Fatalf("pre-v4 suite reported the drift — the control is broken: %+v", base)
	}

	findings, err := lint.Run(pkgs, lint.All(), scope)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var removed, added, route bool
	for _, f := range findings {
		if f.Analyzer != lint.WireSchema.Name {
			continue
		}
		if strings.Contains(f.Message, `wire field "message_legacy" of repro/internal/studysvc.apiError`) &&
			strings.Contains(f.Message, "has been removed or renamed: breaking change") {
			removed = true
		}
		if strings.Contains(f.Message, `wire field "message" of repro/internal/studysvc.apiError is not pinned`) {
			added = true
		}
		if strings.Contains(f.Message, `route "GET /v1/admin/loadavg" is not pinned`) &&
			filepath.Base(f.File) == "zz_injected_route.go" {
			route = true
		}
	}
	if !removed || !added || !route {
		t.Fatalf("wire drift not fully caught (removed=%v added=%v route=%v); findings: %+v", removed, added, route, findings)
	}
}

// TestInjectedPartialStateSwitchIsCaught proves exhaustive catches the
// new-member bug class: a switch over two of the six study states, no
// default, smuggled into studysvc — a finding naming every missed member,
// invisible to the pre-v4 suite.
func TestInjectedPartialStateSwitchIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/studysvc": {{
			Name: "zz_injected_switch.go",
			Src: `package studysvc

// zzBadge renders a state badge, forgetting two-thirds of the states.
func zzBadge(state string) string {
	switch state {
	case StateRunning:
		return "green"
	case StateComplete:
		return "blue"
	}
	return ""
}
`,
		}},
	}
	pkgs, err := loader.Load("./internal/studysvc")
	if err != nil {
		t.Fatalf("loading studysvc with injected switch: %v", err)
	}

	base, err := lint.Run(pkgs, preV4Suite(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running pre-v4 suite: %v", err)
	}
	if len(base) != 0 {
		t.Fatalf("pre-v4 suite reported the partial switch — the control is broken: %+v", base)
	}

	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var hit []lint.Finding
	for _, f := range findings {
		if f.Analyzer == lint.Exhaustive.Name && filepath.Base(f.File) == "zz_injected_switch.go" {
			hit = append(hit, f)
		}
	}
	if len(hit) != 1 || !strings.Contains(hit[0].Message, "misses StateCancelled, StateCancelling, StateFailed, StatePending") {
		t.Fatalf("partial state switch not caught; findings: %+v", findings)
	}
}

// TestInjectedDroppedSaveErrorIsCaught proves errflow guards the
// durability path: a checkpoint Save whose error nobody reads — the
// classic "best-effort" regression that silently stops persisting — is a
// finding, and the pre-v4 suite passes it clean.
func TestInjectedDroppedSaveErrorIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/checkpoint": {{
			Name: "zz_injected_save.go",
			Src: `package checkpoint

import "repro/internal/core"

// zzBestEffortSave drops the save error on the floor.
func zzBestEffortSave(m *Manager, snap *core.StudySnapshot) {
	m.Save(snap)
}
`,
		}},
	}
	pkgs, err := loader.Load("./internal/checkpoint")
	if err != nil {
		t.Fatalf("loading checkpoint with injected save: %v", err)
	}

	base, err := lint.Run(pkgs, preV4Suite(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running pre-v4 suite: %v", err)
	}
	if len(base) != 0 {
		t.Fatalf("pre-v4 suite reported the dropped error — the control is broken: %+v", base)
	}

	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var hit []lint.Finding
	for _, f := range findings {
		if f.Analyzer == lint.ErrFlow.Name && filepath.Base(f.File) == "zz_injected_save.go" {
			hit = append(hit, f)
		}
	}
	if len(hit) != 1 || !strings.Contains(hit[0].Message, "error returned by m.Save is silently dropped") {
		t.Fatalf("dropped Save error not caught; findings: %+v", findings)
	}
}
