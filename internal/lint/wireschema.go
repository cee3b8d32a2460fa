package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/lint/analysis"
)

// marshalShapeFact records the wire shape a custom MarshalJSON emits for a
// named type: the struct (usually anonymous) it hands to json.Marshal,
// flattened to a TypeSchema. Exported bottom-up over the closure so
// wireschema sees through marshalers defined in other packages
// (export.Table's {id,title,text} shape, not its Go fields).
type marshalShapeFact struct{ Shape TypeSchema }

func (*marshalShapeFact) AFact() {}

// WireSchema pins the /v1 wire contract against a checked-in golden.
var WireSchema = &analysis.Analyzer{
	Name: "wireschema",
	Doc: `the served /v1 surface matches the checked-in api.schema.json golden

The route table is read from mux.Handle("METHOD /path") literals; the
JSON shape of every request/response type reachable from a handler —
decode targets, encoder payloads, and anything flowing through an
any-typed parameter into encoding/json (the writeJSON helper) — is
extracted recursively (field, json tag, type, omitempty) and compared
against the golden api.schema.json at the module root. A route or field
that vanishes, a json-tag rename (it reads as a remove + add pair), or a
type change is a breaking change for clients and fails lint outright;
additive changes fail too until the golden is deliberately re-pinned with
` + "`go run ./cmd/sslint -write-schema`" + `. Types with a custom
MarshalJSON contribute the shape their marshaler actually emits, carried
across packages as facts.`,
	FactTypes: []analysis.Fact{new(marshalShapeFact)},
	Run:       runWireSchema,
}

// pkgSyntax is the package view the extraction helpers need; both the
// analyzers (from a Pass) and the -write-schema builder (from loaded
// packages) construct one.
type pkgSyntax struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func passSyntax(pass *analysis.Pass) pkgSyntax {
	return pkgSyntax{fset: pass.Fset, files: pass.Files, pkg: pass.Pkg, info: pass.TypesInfo}
}

func runWireSchema(pass *analysis.Pass) (any, error) {
	ps := passSyntax(pass)
	for obj, shape := range extractMarshalShapes(ps) {
		pass.ExportObjectFact(obj, &marshalShapeFact{Shape: shape})
	}

	routes, routePos, anchor := extractRoutes(ps)
	if len(routes) == 0 {
		return nil, nil // not a package that serves an API
	}
	goldenRel := pass.GoldenPath()
	if goldenRel == "" {
		return nil, nil // no golden configured: extract-only (fixture default)
	}
	anchorFile := pass.Fset.Position(anchor).Filename
	if !pass.InSinkScope(pass.Analyzer.Name, pass.Pkg.Path(), anchorFile) {
		return nil, nil // a mux outside the contract scope (operational binaries)
	}
	goldenPath, err := resolveGolden(pass.Fset, anchor, goldenRel)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(goldenPath)

	x := newSchemaExtractor(func(obj *types.TypeName) (TypeSchema, bool) {
		var f marshalShapeFact
		if pass.ImportObjectFact(obj, &f) {
			return f.Shape, true
		}
		return nil, false
	})
	collectJSONRoots(ps, x)
	current := &APIContract{Routes: routes, Types: x.types}

	var golden APIContract
	if err := readSchemaFile(goldenPath, &golden); err != nil {
		pass.Reportf(anchor, "wire-contract golden %s is missing or unreadable; run `go run ./cmd/sslint -write-schema` to pin the /v1 surface", base)
		return nil, nil
	}

	reportRouteDrift(pass, &golden, current, routePos, anchor, base)
	reportWireTypeDrift(pass, x, diffTypes(golden.Types, current.Types), anchor, base)
	return nil, nil
}

// reportRouteDrift compares the route tables as sets.
func reportRouteDrift(pass *analysis.Pass, golden, current *APIContract, routePos map[string]token.Pos, anchor token.Pos, base string) {
	have := make(map[string]bool, len(current.Routes))
	for _, r := range current.Routes {
		have[r] = true
	}
	pinned := make(map[string]bool, len(golden.Routes))
	for _, r := range golden.Routes {
		pinned[r] = true
	}
	for _, r := range golden.Routes {
		if !have[r] {
			pass.Reportf(anchor, "route %q is pinned in %s but no longer served: breaking change for clients; restore it or deliberately re-pin with -write-schema", r, base)
		}
	}
	for _, r := range current.Routes {
		if !pinned[r] {
			pos := routePos[r]
			if pos == token.NoPos {
				pos = anchor
			}
			pass.Reportf(pos, "route %q is not pinned in %s: additive change; run `go run ./cmd/sslint -write-schema` to re-pin", r, base)
		}
	}
}

// reportWireTypeDrift renders type diffs as breaking/additive findings,
// anchored at the drifted declaration where one exists.
func reportWireTypeDrift(pass *analysis.Pass, x *schemaExtractor, diffs []schemaDiff, anchor token.Pos, base string) {
	at := func(key, field string) token.Pos {
		if field != "" {
			if p := x.fieldPos[key][field]; p != token.NoPos && p != 0 {
				return p
			}
		}
		if p := x.typePos[key]; p != token.NoPos && p != 0 {
			return p
		}
		return anchor
	}
	for _, d := range diffs {
		switch d.kind {
		case "type-removed":
			pass.Reportf(anchor, "wire type %s is pinned in %s but no longer reachable from any handler: breaking change for clients; restore it or re-pin with -write-schema", d.typeKey, base)
		case "type-added":
			pass.Reportf(at(d.typeKey, ""), "wire type %s is not pinned in %s: additive change; run `go run ./cmd/sslint -write-schema` to re-pin", d.typeKey, base)
		case "field-removed":
			pass.Reportf(at(d.typeKey, ""), "wire field %q of %s (pinned %s in %s) has been removed or renamed: breaking change for clients; restore it or re-pin with -write-schema after a deliberate API revision", d.field, d.typeKey, d.old, base)
		case "field-changed":
			pass.Reportf(at(d.typeKey, d.field), "wire field %q of %s changed type %s -> %s: breaking change for clients; revert or re-pin with -write-schema", d.field, d.typeKey, d.old, d.new)
		case "field-added":
			pass.Reportf(at(d.typeKey, d.field), "wire field %q of %s is not pinned in %s: additive change; run `go run ./cmd/sslint -write-schema` to re-pin", d.field, d.typeKey, base)
		}
	}
}

// extractMarshalShapes finds every MarshalJSON method in the package whose
// body hands a struct to json.Marshal and records the emitted shape,
// keyed by the receiver's TypeName.
func extractMarshalShapes(ps pkgSyntax) map[*types.TypeName]TypeSchema {
	out := make(map[*types.TypeName]TypeSchema)
	for _, f := range ps.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "MarshalJSON" || fd.Body == nil {
				continue
			}
			recv := ps.info.TypeOf(fd.Recv.List[0].Type)
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				continue
			}
			var shape TypeSchema
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || shape != nil || len(call.Args) == 0 {
					return true
				}
				if fn := calleeFunc(ps.info, call); fn == nil || fn.FullName() != "encoding/json.Marshal" {
					return true
				}
				t := ps.info.TypeOf(call.Args[0])
				if t == nil {
					return true
				}
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if st, ok := t.Underlying().(*types.Struct); ok {
					// A throwaway extractor: marshal shapes are flat structs
					// of basics in practice; nested named structs fall back
					// to their structural descriptor.
					shape = newSchemaExtractor(nil).structSchema("", st)
				}
				return true
			})
			if shape != nil {
				out[named.Obj()] = shape
			}
		}
	}
	return out
}

// calleeFunc resolves a call's static callee, or nil (function-typed
// locals, type conversions, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// extractRoutes collects the string-literal patterns of every
// Handle/HandleFunc call on a *net/http.ServeMux, sorted; the anchor is
// the first such call in file order (where package-level findings point).
func extractRoutes(ps pkgSyntax) (routes []string, routePos map[string]token.Pos, anchor token.Pos) {
	routePos = make(map[string]token.Pos)
	for _, f := range ps.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
				return true
			}
			recv := ps.info.TypeOf(sel.X)
			if recv == nil {
				return true
			}
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "net/http" || named.Obj().Name() != "ServeMux" {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			route, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if _, seen := routePos[route]; !seen {
				routes = append(routes, route)
				routePos[route] = lit.Pos()
			}
			if anchor == token.NoPos {
				anchor = call.Pos()
			}
			return true
		})
	}
	sort.Strings(routes)
	return routes, routePos, anchor
}

// collectJSONRoots registers every concrete type the package puts on the
// JSON wire: payload arguments of encoding/json calls (Marshal, Unmarshal,
// Encoder.Encode, Decoder.Decode) plus arguments flowing into those calls
// through any-typed parameters of local helpers (a fixpoint, so
// writeError → writeJSON → enc.Encode still roots errorEnvelope).
func collectJSONRoots(ps pkgSyntax, x *schemaExtractor) {
	encParams := findEncodingParams(ps)
	for _, f := range ps.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, idx := range payloadIndices(ps.info, call, encParams) {
				if idx >= len(call.Args) {
					continue
				}
				arg := ast.Unparen(call.Args[idx])
				t := ps.info.TypeOf(arg)
				if t == nil || types.IsInterface(t) {
					continue // a forwarded any-param: rooted at its own call sites
				}
				x.addRoot(t, ps.pkg.Path(), arg.Pos())
			}
			return true
		})
	}
}

// findEncodingParams computes, per declared function, the parameter
// indices whose values reach a JSON payload slot — directly or through
// another local function already known to forward (iterated to fixpoint).
func findEncodingParams(ps pkgSyntax) map[*types.Func]map[int]bool {
	encParams := make(map[*types.Func]map[int]bool)
	for changed := true; changed; {
		changed = false
		for _, f := range ps.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := ps.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sig := fn.Type().(*types.Signature)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, idx := range payloadIndices(ps.info, call, encParams) {
						if idx >= len(call.Args) {
							continue
						}
						id, ok := ast.Unparen(call.Args[idx]).(*ast.Ident)
						if !ok {
							continue
						}
						obj := ps.info.Uses[id]
						for i := 0; i < sig.Params().Len(); i++ {
							if sig.Params().At(i) == obj {
								if encParams[fn] == nil {
									encParams[fn] = make(map[int]bool)
								}
								if !encParams[fn][i] {
									encParams[fn][i] = true
									changed = true
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	return encParams
}

// payloadIndices returns the argument positions of call that land on the
// JSON wire.
func payloadIndices(info *types.Info, call *ast.CallExpr, encParams map[*types.Func]map[int]bool) []int {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	switch fn.FullName() {
	case "encoding/json.Marshal", "encoding/json.MarshalIndent":
		return []int{0}
	case "encoding/json.Unmarshal":
		return []int{1}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "encoding/json" {
			if (named.Obj().Name() == "Encoder" && fn.Name() == "Encode") ||
				(named.Obj().Name() == "Decoder" && fn.Name() == "Decode") {
				return []int{0}
			}
		}
	}
	if idxs := encParams[fn]; len(idxs) > 0 {
		out := make([]int, 0, len(idxs))
		for i := range idxs {
			out = append(out, i)
		}
		sort.Ints(out)
		return out
	}
	return nil
}
