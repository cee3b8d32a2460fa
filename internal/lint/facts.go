package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// This file defines the fact vocabulary the suite propagates across
// packages. The base analyzers (nowalltime, seededrand, maporder,
// poolonly) export source-level facts on the functions that
// contain violations — in every package, scoped or not, because a fact is
// evidence, not a verdict — and purity folds them transitively over the
// call graph. Scope decides where verdicts (diagnostics) land; facts are
// scope-free.

// Effect kinds, each owned by one base analyzer whose scope defines where
// the effect is *directly* forbidden. purity reports an indirect effect at
// a call site exactly when the callee's own definition lies outside that
// base analyzer's scope (the sink is gated, the source is exempt).
const (
	kindClock     = "wall-clock access"
	kindRand      = "global/OS randomness"
	kindMapOrder  = "a map-order-dependent value"
	kindGoroutine = "an unsanctioned goroutine"
)

// kindBaseAnalyzer maps an effect kind to the analyzer whose scope governs
// its direct form.
var kindBaseAnalyzer = map[string]string{
	kindClock:     "nowalltime",
	kindRand:      "seededrand",
	kindMapOrder:  "maporder",
	kindGoroutine: "poolonly",
}

// UsesClock marks a function whose body references a wall-clock reading
// time.* function. Exported by nowalltime.
type UsesClock struct {
	Via string // e.g. "time.Now"
}

func (*UsesClock) AFact() {}

// UsesRand marks a function whose body references math/rand, math/rand/v2
// or crypto/rand. Exported by seededrand.
type UsesRand struct {
	Via string // e.g. "math/rand.Intn"
}

func (*UsesRand) AFact() {}

// MapOrdered marks a function containing a map iteration that feeds an
// order-dependent sink with no rescuing sort. Exported by maporder.
type MapOrdered struct {
	Via string // e.g. "append in map range"
}

func (*MapOrdered) AFact() {}

// SpawnsGoroutine marks a function containing a raw go statement.
// Exported by poolonly.
type SpawnsGoroutine struct {
	Via string // always "go statement"
}

func (*SpawnsGoroutine) AFact() {}

// Impure is purity's transitive summary: the effect kinds a function can
// reach through any chain of calls, each with one representative chain for
// the diagnostic. Kinds are sorted; Via chains are deterministic (first
// discovery in bottom-up, source-ordered analysis wins).
type Impure struct {
	Effects []Effect
}

func (*Impure) AFact() {}

// Effect is one reachable impurity: its kind and a representative
// provenance chain ("telemetry.stamp → time.Now").
type Effect struct {
	Kind string
	Via  string
}

// PoolForwarder marks a function that forwards one or more of its
// func-typed parameters into a parallel pool entry point (directly or
// through another forwarder). Exported by racecapture so closures handed
// to a wrapper in another package are checked at their creation site.
type PoolForwarder struct {
	Params []int // forwarded parameter indices, sorted
}

func (*PoolForwarder) AFact() {}

// enclosingFuncObj returns the declared function whose body contains pos,
// or nil for positions outside any function declaration (package-level
// initializers are out of the fact model's reach; their direct violations
// are still reported by the base analyzers).
func enclosingFuncObj(pass *analysis.Pass, pos token.Pos) *types.Func {
	f := fileContaining(pass, pos)
	if f == nil {
		return nil
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Pos() <= pos && pos < fd.End() {
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			return fn
		}
	}
	return nil
}

// exportSourceFact attaches fact to the function enclosing pos unless that
// function already carries a fact of the same type (the first violation in
// source order names the representative Via).
func exportSourceFact(pass *analysis.Pass, pos token.Pos, probe, fact analysis.Fact) {
	fn := enclosingFuncObj(pass, pos)
	if fn == nil {
		return
	}
	if pass.ImportObjectFact(fn, probe) {
		return
	}
	pass.ExportObjectFact(fn, fact)
}
