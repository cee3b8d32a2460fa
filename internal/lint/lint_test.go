package lint_test

import (
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/load"
)

func one(a *analysis.Analyzer) []*analysis.Analyzer { return []*analysis.Analyzer{a} }

func TestNoWallTime(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.NoWallTime), "nowalltime")
}

func TestSeededRand(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.SeededRand), "seededrand")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.MapOrder), "maporder")
}

func TestPoolOnly(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.PoolOnly), "poolonly")
}

// TestPurity needs an explicit scope: the frontier only exists when the
// caller's package is gated and the callee's is not. purity/sim is the
// gated simulation stand-in, purity/exempt the trusted-looking library
// that launders wall-clock reads through helpers and an interface.
func TestPurity(t *testing.T) {
	scope := &lint.Scope{
		Packages: map[string][]string{
			lint.NoWallTime.Name: {"purity/sim"},
			lint.Purity.Name:     {"purity/sim"},
		},
	}
	analysistest.RunScoped(t, "testdata/src", one(lint.Purity), scope, "purity/sim")
}

func TestRaceCapture(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.RaceCapture), "racecapture/a")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.CtxFlow), "ctxflow/a")
}

// TestDirectives runs the whole suite over the directive fixtures: used
// suppressions vanish, malformed/unknown/unused directives surface.
func TestDirectives(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.All(), "ignoredir")
}

func TestSnapshotFields(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.SnapshotFields), "snapshotfields")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.LockDiscipline), "lockdiscipline")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.HotAlloc), "hotalloc")
}

// TestFaultBoundary needs an explicit scope: the wrap rule reports across
// the wiring packages while the net/http import ban consults the narrower
// "faultboundary/imports" pseudo-key — exactly how DefaultScope carves the
// real module.
func TestFaultBoundary(t *testing.T) {
	scope := &lint.Scope{
		Packages: map[string][]string{
			lint.FaultBoundary.Name: {"faultboundary/..."},
			"faultboundary/imports": {"faultboundary/sim"},
		},
	}
	analysistest.RunScoped(t, "testdata/src", one(lint.FaultBoundary), scope,
		"faultboundary/cmdpkg", "faultboundary/sim")
}

func TestAPICodes(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.APICodes), "apicodes")
}

func TestExhaustive(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.Exhaustive), "exhaustive/a")
}

func TestErrFlow(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.ErrFlow), "errflow/a")
}

// pinFixtureGolden extracts the wire contract from one fixture package
// exactly as -write-schema would, lets the caller doctor it into "the
// past" the golden should pin, and writes the result under a temp dir.
// Fixture trees have no go.mod, so the returned scope carries the golden
// as an absolute path — the documented fixture-test convention.
func pinFixtureGolden(t *testing.T, pkgPath string, doctor func(api *lint.APIContract)) *lint.Scope {
	t.Helper()
	pkgs, err := load.NewFixtureLoader("testdata/src").Load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}
	scope := &lint.Scope{Packages: map[string][]string{lint.WireSchema.Name: {pkgPath}}}
	api := lint.BuildAPIContract(pkgs, scope)
	if api == nil {
		t.Fatalf("no wire contract extracted from %s", pkgPath)
	}
	if doctor != nil {
		doctor(api)
	}
	golden := filepath.Join(t.TempDir(), lint.APISchemaFile)
	if err := lint.WriteSchemaFile(golden, api); err != nil {
		t.Fatal(err)
	}
	scope.Goldens = map[string]string{lint.WireSchema.Name: golden}
	return scope
}

// TestWireSchemaClean pins the golden from the fixture itself: the
// re-check finds no drift.
func TestWireSchemaClean(t *testing.T) {
	scope := pinFixtureGolden(t, "wireschema/clean", nil)
	analysistest.RunScoped(t, "testdata/src", one(lint.WireSchema), scope, "wireschema/clean")
}

// TestWireSchemaDrift pins a golden from the pre-revision world — the
// "message" field name, a DELETE route, no POST route — and expects a
// finding per divergence, at the drifted declaration.
func TestWireSchemaDrift(t *testing.T) {
	scope := pinFixtureGolden(t, "wireschema/drift", func(api *lint.APIContract) {
		routes := []string{"DELETE /v1/items/{id}"}
		for _, r := range api.Routes {
			if r != "POST /v1/items" {
				routes = append(routes, r)
			}
		}
		sort.Strings(routes)
		api.Routes = routes
		reply := api.Types["wireschema/drift.Reply"]
		reply["message"] = reply["msg"]
		delete(reply, "msg")
	})
	analysistest.RunScoped(t, "testdata/src", one(lint.WireSchema), scope, "wireschema/drift")
}
