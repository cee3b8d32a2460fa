package lint

import (
	"path"
	"strings"
)

// Scope decides which analyzers run where. Packages outside an analyzer's
// scope are exempt by configuration — visibly, in one place — rather than
// by silently never running the tool over them. cmd/ binaries and the
// interactive CLI, where wall-clock reads and ad-hoc goroutines are
// legitimate, are therefore simply absent from the lists below.
type Scope struct {
	// Packages maps analyzer name to the import-path patterns it covers.
	// A pattern is an exact import path or a prefix ending in "/...".
	Packages map[string][]string
	// ExcludeFiles maps analyzer name to file base names it must skip,
	// keyed as "importpath:base.go". Used for files whose job is to
	// bridge the simulation to the real world (the fault-injection
	// net/http layer drives real connections and may legitimately need
	// wall-clock deadlines).
	ExcludeFiles map[string]map[string]bool
	// TrustedImpure lists functions — by types.Func.FullName, e.g.
	// "(*repro/internal/telemetry.Stage).Start" — asserted
	// fingerprint-neutral: purity neither propagates their impurity nor
	// reports calls to them. Trust is granted per function, never per
	// package, so a helper smuggled into an otherwise-trusted exempt
	// package is still caught.
	TrustedImpure map[string]bool
	// Goldens maps analyzer name to the golden schema file it compares
	// the extracted contract against (wireschema's api.schema.json).
	// A relative path is resolved by the analyzer against the analyzed
	// module's root (the directory holding go.mod); tests pass absolute
	// paths. Analyzers with no entry extract but never compare.
	Goldens map[string]string
}

// simulationPackages are the deterministic core: everything whose output
// feeds the dataset fingerprint. The module root ("repro") is the public
// study API and orchestrates runs, so it is held to the same standard.
var simulationPackages = []string{
	"repro",
	"repro/internal/analytics",
	"repro/internal/brands",
	"repro/internal/campaign",
	"repro/internal/classify",
	"repro/internal/cnc",
	"repro/internal/core",
	"repro/internal/crawler",
	"repro/internal/domid",
	"repro/internal/experiments",
	"repro/internal/export",
	"repro/internal/faults",
	"repro/internal/htmlgen",
	"repro/internal/htmlparse",
	"repro/internal/intervention",
	"repro/internal/jsmini",
	"repro/internal/metrics",
	"repro/internal/purchase",
	"repro/internal/rng",
	"repro/internal/searchsim",
	"repro/internal/shard",
	"repro/internal/simclock",
	"repro/internal/simweb",
	"repro/internal/store",
	"repro/internal/supplier",
	"repro/internal/traffic",
}

// DefaultScope is the scope CI enforces over this module.
//
// Deliberate exclusions, and why they are configuration rather than gaps:
//   - cmd/... and internal/cli: operational binaries; server timeouts,
//     progress ticks and signal handling legitimately read the clock and
//     spawn goroutines.
//   - internal/telemetry and internal/parallel are excluded from
//     nowalltime/poolonly: measuring wall time and running workers is
//     their entire purpose, and both are proven fingerprint-neutral by
//     the determinism tests. telemetry still gets maporder (its exposition
//     formats promise stable output).
//   - internal/faults/handler.go is excluded from nowalltime: it is the
//     net/http fault layer driving real connections, where deadline
//     plumbing against the machine clock is legitimate.
func DefaultScope() *Scope {
	return &Scope{
		Packages: map[string][]string{
			NoWallTime.Name:  simulationPackages,
			SeededRand.Name:  simulationPackages,
			MapOrder.Name:    append([]string{"repro/internal/telemetry"}, simulationPackages...),
			PoolOnly.Name:    simulationPackages,
			Purity.Name:      simulationPackages,
			RaceCapture.Name: simulationPackages,
			CtxFlow.Name:     simulationPackages,
			// Snapshot completeness applies wherever Export*/Restore* pairs
			// live; running it over the whole sim core means a pair added to
			// a new package is covered the day it lands.
			SnapshotFields.Name: simulationPackages,
			// Lock discipline targets the service plane and the sharded
			// state both studysvc and the day pipeline lean on.
			LockDiscipline.Name: {"repro/internal/studysvc", "repro/internal/shard"},
			// The zero-alloc packages the AllocsPerRun gates pin (plus
			// searchsim, whose per-day serp walk dominates the day).
			HotAlloc.Name: {
				"repro/internal/htmlgen",
				"repro/internal/htmlparse",
				"repro/internal/shard",
				"repro/internal/searchsim",
			},
			// faultboundary's wrap rule reports wherever faults.Handler (or
			// a wrapper) can be called with control-plane handlers; its
			// import rule consults the narrower pseudo-scope below.
			FaultBoundary.Name: append([]string{
				"repro/internal/studysvc",
				"repro/cmd/crawlerd",
			}, simulationPackages...),
			// Pseudo-key consulted via InSinkScope by faultboundary's
			// net/http import ban: the deterministic core minus the two
			// sanctioned HTTP-facing packages (faults wraps real handlers,
			// simweb *is* the simulated web server).
			"faultboundary/imports": {
				"repro",
				"repro/internal/analytics",
				"repro/internal/brands",
				"repro/internal/campaign",
				"repro/internal/classify",
				"repro/internal/cnc",
				"repro/internal/core",
				"repro/internal/crawler",
				"repro/internal/domid",
				"repro/internal/experiments",
				"repro/internal/export",
				"repro/internal/htmlgen",
				"repro/internal/htmlparse",
				"repro/internal/intervention",
				"repro/internal/jsmini",
				"repro/internal/metrics",
				"repro/internal/purchase",
				"repro/internal/rng",
				"repro/internal/searchsim",
				"repro/internal/shard",
				"repro/internal/simclock",
				"repro/internal/store",
				"repro/internal/supplier",
				"repro/internal/traffic",
			},
			// The error-code registry lives in the root package (spec
			// validation) and studysvc (the /v1 HTTP error envelope).
			APICodes.Name: {"repro", "repro/internal/studysvc"},
			// The wire contract is extracted where the /v1 surface is
			// built.
			WireSchema.Name: {"repro/internal/studysvc"},
			// Exhaustiveness over the declared string-enum sets: study
			// states and event types (studysvc), spec validation codes
			// (root), disk kill points (faults) — anywhere those consts
			// are dispatched on.
			Exhaustive.Name: {
				"repro",
				"repro/internal/checkpoint",
				"repro/internal/faults",
				"repro/internal/studysvc",
			},
			// Unchecked errors are forbidden where a silent drop costs
			// durability or a tenant: the deterministic core, the
			// checkpoint write protocol, and the service plane.
			ErrFlow.Name: {
				"repro/internal/checkpoint",
				"repro/internal/core",
				"repro/internal/studysvc",
			},
		},
		ExcludeFiles: map[string]map[string]bool{
			NoWallTime.Name: {"repro/internal/faults:handler.go": true},
			// The net/http fault layer's wall-clock use is sanctioned, so
			// its internal call chains are exempt from the indirect gate
			// too; callers elsewhere in faults remain gated.
			Purity.Name: {"repro/internal/faults:handler.go": true},
			HotAlloc.Name: {
				// Cloaking-script synthesis is memoised behind
				// Generator.cache — each (id, target) pair renders once per
				// run; the per-page path replays cached bytes, which
				// htmlgen's AllocsPerRun gate pins at 0 allocs/op.
				"repro/internal/htmlgen:cloak.go": true,
				// The snapshot codec runs at day boundaries only (export on
				// checkpoint, restore on resume), never inside the day loop.
				"repro/internal/searchsim:state.go": true,
			},
		},
		// The telemetry span/registry entry points and the parallel pool
		// drivers read the wall clock and spawn workers by design; the
		// determinism tests prove them fingerprint-neutral (telemetry is
		// observation-only, the pool commits in submission order).
		TrustedImpure: map[string]bool{
			"repro/internal/telemetry.New":                         true,
			"(*repro/internal/telemetry.Stage).Start":              true,
			"(repro/internal/telemetry.Span).End":                  true,
			"(*repro/internal/telemetry.Registry).Snapshot":        true,
			"(*repro/internal/telemetry.Registry).SetSpanObserver": true,
			"repro/internal/parallel.ForEach":                      true,
			"repro/internal/parallel.ForEachObserved":              true,
			"repro/internal/parallel.Map":                          true,
			// The checkpoint manager does disk I/O and times it by design;
			// it runs strictly at day boundaries, after the day's state has
			// committed, and writes never feed back into the simulation —
			// the resume tests prove a checkpointed study's fingerprint
			// bit-identical to an uninterrupted one. SaveAsync's writer
			// goroutine only reads the exported snapshot, a deep copy, so
			// the next day's mutations never reach it and it never reaches
			// them.
			"(*repro/internal/checkpoint.Manager).Save":      true,
			"(*repro/internal/checkpoint.Manager).SaveAsync": true,
			"(*repro/internal/checkpoint.Manager).Load":      true,
		},
		// The wire-contract golden, checked in at the module root and
		// regenerated only via `go run ./cmd/sslint -write-schema`.
		Goldens: map[string]string{
			WireSchema.Name: APISchemaFile,
		},
	}
}

// AppliesTo reports whether analyzer covers pkgPath. A nil scope applies
// everything everywhere (used by analyzer unit tests over fixtures).
func (s *Scope) AppliesTo(analyzer, pkgPath string) bool {
	if s == nil {
		return true
	}
	for _, pat := range s.Packages[analyzer] {
		if pat == pkgPath {
			return true
		}
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok &&
			(pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")) {
			return true
		}
	}
	return false
}

// FileExcluded reports whether analyzer must skip the file (base name)
// inside pkgPath.
func (s *Scope) FileExcluded(analyzer, pkgPath, filename string) bool {
	if s == nil {
		return false
	}
	return s.ExcludeFiles[analyzer][pkgPath+":"+path.Base(filename)]
}

// Trusted reports whether the function (types.Func.FullName) is asserted
// fingerprint-neutral for interprocedural analyzers. A nil scope trusts
// nothing — fixture tests see every effect.
func (s *Scope) Trusted(analyzer, fullName string) bool {
	if s == nil {
		return false
	}
	return s.TrustedImpure[fullName]
}

// Golden returns the golden schema file configured for analyzer, or ""
// (a nil scope configures no goldens: fixture runs extract but never
// compare).
func (s *Scope) Golden(analyzer string) string {
	if s == nil {
		return ""
	}
	return s.Goldens[analyzer]
}
