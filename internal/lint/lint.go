// Package lint is sslint: a suite of static analyzers that mechanically
// enforce the determinism invariants every headline number in this
// reproduction rests on. The golden fingerprint tests prove a study
// replayed bit-identically *this time*; sslint proves the properties that
// make it replay at all — no wall-clock reads, no global randomness, no
// map-order-dependent dataflow, no unsanctioned goroutines, no impurity
// laundered through helper packages, no shared-state captures slipping
// into the worker pools — before any test runs. Each analyzer is kept only
// for what no deterministic test can observe (DESIGN.md §6 "Which
// analyzers stay"); the telemetry nil-receiver contract, for one, is a
// test in internal/telemetry.
//
// The suite is interprocedural: analyzers export typed facts
// (analysis.Fact) on functions and packages, the driver analyzes the full
// dependency closure bottom-up so facts always exist before they are
// imported, and the purity/racecapture analyzers walk a conservative call
// graph (internal/lint/callgraph) to catch violations that reach gated
// packages through any chain of calls — including interface dispatch into
// exempt packages.
//
// Run it as `go run ./cmd/sslint ./...`; CI runs the same command with
// -json and -sarif and fails on any finding. Suppressions are explicit,
// reasoned and checked (see directive.go).
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/load"
)

// All returns the full sslint analyzer suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		APICodes, CtxFlow, ErrFlow, Exhaustive, FaultBoundary, HotAlloc,
		LockDiscipline, MapOrder, NoWallTime, PoolOnly, Purity,
		RaceCapture, SeededRand, SnapshotFields, WireSchema,
	}
}

// Finding is one reported issue, positioned and attributed. File is the
// absolute path as loaded; Finalize rewrites it module-relative and
// assigns the stable ID used by the -json and SARIF outputs.
type Finding struct {
	ID       string         `json:"id"`
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Message  string         `json:"message"`
}

// factKey identifies one fact: the object it is attached to (nil for
// package facts), the package (package facts), and its concrete type.
// The fact type alone namespaces the exporter — each fact type belongs
// to exactly one analyzer — which is what lets purity import the base
// analyzers' source facts (UsesClock etc.) across the Requires edge.
type factKey struct {
	obj types.Object
	pkg *types.Package
	t   reflect.Type
}

// Run executes analyzers over pkgs under scope (nil scope = everything
// applies, for fixture tests), applies //sslint:ignore suppression, checks
// for directive rot and returns the surviving findings sorted by position.
// Analyzer errors abort the run: a linter that half-ran is worse than one
// that failed loudly.
//
// The driver walks the dependency closure of pkgs in topological order:
// fact-exporting analyzers (and the transitive Requires of the requested
// ones) run over every local package bottom-up, so cross-package facts are
// always available; diagnostics are only collected from the requested
// packages, only from the analyzers explicitly requested, and only at
// positions the scope covers (exemption applies at the sink, not the
// source).
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer, scope *Scope) ([]Finding, error) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	requested := make(map[*load.Package]bool, len(pkgs))
	for _, p := range pkgs {
		requested[p] = true
	}
	diagnostic := make(map[*analysis.Analyzer]bool, len(analyzers))
	for _, a := range analyzers {
		diagnostic[a] = true
	}

	ordered := requireOrder(analyzers)
	closure := dependencyOrder(pkgs)
	facts := make(map[factKey]analysis.Fact)
	uni := callgraph.NewUniverse()

	var all []Finding
	for _, pkg := range closure {
		pkg := pkg
		uni.AddPackage(pkg.Types)
		isRequested := requested[pkg]
		var findings []Finding
		ran := make(map[string]bool)
		for _, a := range ordered {
			a := a
			applies := scope.AppliesTo(a.Name, pkg.PkgPath)
			reportHere := isRequested && applies && diagnostic[a]
			if !reportHere && len(a.FactTypes) == 0 {
				continue
			}
			if reportHere {
				ran[a.Name] = true
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Universe:  uni,
				Report: func(d analysis.Diagnostic) {
					pos := pkg.Fset.Position(d.Pos)
					if !reportHere || scope.FileExcluded(a.Name, pkg.PkgPath, pos.Filename) {
						return
					}
					findings = append(findings, Finding{
						Analyzer: a.Name,
						Pos:      pos,
						File:     pos.Filename,
						Line:     pos.Line,
						Column:   pos.Column,
						Message:  d.Message,
					})
				},
				ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
					facts[factKey{obj: obj, t: reflect.TypeOf(fact)}] = fact
				},
				ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
					return importFact(facts, factKey{obj: obj, t: reflect.TypeOf(fact)}, fact)
				},
				ExportPackageFact: func(fact analysis.Fact) {
					facts[factKey{pkg: pkg.Types, t: reflect.TypeOf(fact)}] = fact
				},
				ImportPackageFact: func(p *types.Package, fact analysis.Fact) bool {
					return importFact(facts, factKey{pkg: p, t: reflect.TypeOf(fact)}, fact)
				},
				InSinkScope: func(analyzer, pkgPath, filename string) bool {
					return scope.AppliesTo(analyzer, pkgPath) && !scope.FileExcluded(analyzer, pkgPath, filename)
				},
				TrustedImpure: func(fullName string) bool {
					return scope.Trusted(a.Name, fullName)
				},
				GoldenPath: func() string {
					return scope.Golden(a.Name)
				},
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		if !isRequested {
			continue
		}
		var dirs []*directive
		for _, f := range pkg.Files {
			dirs = append(dirs, parseDirectives(pkg.Fset, f)...)
		}
		findings = suppress(pkg.Fset, findings, dirs, ran, known)
		all = append(all, findings...)
	}
	sortFindings(all)
	// Re-derive the serialisable position fields (suppress may have
	// added directive findings that only set Pos).
	for i := range all {
		all[i].File = all[i].Pos.Filename
		all[i].Line = all[i].Pos.Line
		all[i].Column = all[i].Pos.Column
	}
	return dedupe(all), nil
}

// importFact copies a stored fact into the caller's prototype via
// reflection (facts are pointer types).
func importFact(facts map[factKey]analysis.Fact, key factKey, dst analysis.Fact) bool {
	src, ok := facts[key]
	if !ok {
		return false
	}
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
	return true
}

// dependencyOrder returns the dependency closure of pkgs in bottom-up
// topological order (imports before importers), deterministically: the
// DFS visits each package's Imports in sorted order and the roots in
// their given (already sorted) order.
func dependencyOrder(pkgs []*load.Package) []*load.Package {
	var order []*load.Package
	state := make(map[*load.Package]int) // 1 = visiting, 2 = done
	var visit func(p *load.Package)
	visit = func(p *load.Package) {
		if state[p] != 0 {
			return // done, or a cycle the loader already rejected
		}
		state[p] = 1
		for _, dep := range p.Imports {
			visit(dep)
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

// requireOrder expands analyzers with their transitive Requires and
// returns them in an order where every requirement precedes its
// dependents (stable within a level: the caller's order is preserved).
func requireOrder(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var order []*analysis.Analyzer
	state := make(map[*analysis.Analyzer]int)
	var visit func(a *analysis.Analyzer)
	visit = func(a *analysis.Analyzer) {
		if state[a] != 0 {
			return
		}
		state[a] = 1
		for _, req := range a.Requires {
			visit(req)
		}
		state[a] = 2
		order = append(order, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return order
}

// dedupe removes exact-duplicate findings (overlapping trigger rules may
// fire twice on one expression).
func dedupe(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 {
			p := fs[i-1]
			if p.Analyzer == f.Analyzer && p.Pos == f.Pos && p.Message == f.Message {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}
