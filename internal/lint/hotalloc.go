package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// HotAlloc is the static complement to the AllocsPerRun gates: it bans the
// allocation patterns that the zero-alloc packages already paid to remove.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: `no fmt.Sprintf, loop string concat, or unpooled growth in zero-alloc packages

The day pipeline's throughput rests on htmlgen/htmlparse/shard/searchsim
staying allocation-free on the hot path (testing.AllocsPerRun gates pin
steady-state page generation, shard lookups and Triplets, and CI's
work-gates job runs them outside -race). The gates catch regressions once
the code runs; this analyzer catches them at review time.
Three rules inside the scoped packages: (1) fmt.Sprintf/Sprint/Sprintln
anywhere — each call allocates its result and boxes every operand;
(2) string concatenation (+ / +=) inside a loop body — quadratic
garbage; use an appended []byte or a pooled builder; (3) make() inside a
loop body, and append-growth loops feeding a slice that was created
without capacity in the same function — size it up front or take a
buffer from internal/parallel's pools. Cold paths (memoised setup,
snapshot import/export) are excluded per-file in DefaultScope with a
written rationale, or suppressed inline with //sslint:ignore hotalloc.`,
	Run: runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHotFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

// checkHotFunc applies all three rules to one function body.
func checkHotFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// noCap records locals created in this function with unknown or zero
	// capacity: `make([]T, n)` / `make([]T)`-style without a cap argument,
	// empty composite literals, and plain var declarations.
	noCap := make(map[*types.Var]bool)

	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := pass.TypesInfo.Defs[id].(*types.Var)
		if !ok {
			if v, ok = pass.TypesInfo.Uses[id].(*types.Var); !ok {
				return
			}
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			if bid, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[bid].(*types.Builtin); ok && b.Name() == "make" {
					// make([]T, len) has 2 args; make([]T, len, cap) has 3.
					noCap[v] = len(rhs.Args) < 3
					return
				}
			}
			delete(noCap, v) // produced elsewhere: origin unknown, stay quiet
		case *ast.CompositeLit:
			noCap[v] = len(rhs.Elts) == 0
		default:
			delete(noCap, v)
		}
	}

	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			checkHotFunc(pass, n.Body)
			return
		case *ast.ForStmt:
			walk(n.Init, inLoop)
			walk(n.Cond, inLoop)
			walk(n.Post, true)
			walk(n.Body, true)
			return
		case *ast.RangeStmt:
			walk(n.X, inLoop)
			walk(n.Body, true)
			return
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if len(vs.Values) == 0 {
						for _, name := range vs.Names {
							if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
								if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
									noCap[v] = true
								}
							}
						}
					} else {
						for i, name := range vs.Names {
							if i < len(vs.Values) {
								record(name, vs.Values[i])
								walk(vs.Values[i], inLoop)
							}
						}
					}
				}
				return
			}
		case *ast.AssignStmt:
			if app, grown := appendGrowth(pass, n); grown {
				if inLoop && noCap[app] {
					pass.Reportf(n.Pos(), "append-growth in a loop on %s, which was created without capacity; size it up front or use a pooled buffer", app.Name())
				}
			} else if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
			if inLoop && n.Tok == token.ADD_ASSIGN && isStringExpr(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "string += in a loop builds quadratic garbage; append to a []byte or pooled builder instead")
			}
			for _, e := range n.Rhs {
				walk(e, inLoop)
			}
			for _, e := range n.Lhs {
				walk(e, inLoop)
			}
			return
		case *ast.BinaryExpr:
			if inLoop && n.Op == token.ADD && isStringExpr(pass, n) && !isConstExpr(pass, n) {
				pass.Reportf(n.OpPos, "string concatenation in a loop builds quadratic garbage; append to a []byte or pooled builder instead")
			}
		case *ast.CallExpr:
			if name, ok := fmtAllocCall(pass, n); ok {
				pass.Reportf(n.Pos(), "fmt.%s allocates its result and boxes every operand; use strconv or pooled append on this hot path", name)
			}
			if inLoop {
				if bid, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[bid].(*types.Builtin); ok && b.Name() == "make" {
						pass.Reportf(n.Pos(), "make() inside a loop allocates every iteration; hoist it out or reuse a pooled buffer")
					}
				}
			}
		}
		// Generic traversal for everything not handled above.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, inLoop)
			return false
		})
	}
	walk(body, false)
}

// appendGrowth matches `x = append(x, ...)` and returns x's object.
func appendGrowth(pass *analysis.Pass, as *ast.AssignStmt) (*types.Var, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, false
	}
	if b, ok := pass.TypesInfo.Uses[fid].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || arg0.Name != id.Name {
		return nil, false
	}
	v, _ := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if v == nil {
		return nil, false
	}
	return v, true
}

// fmtAllocCall matches fmt.Sprintf/Sprint/Sprintln by package path.
func fmtAllocCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", false
	}
	switch fn.Name() {
	case "Sprintf", "Sprint", "Sprintln":
		return fn.Name(), true
	}
	return "", false
}

func isStringExpr(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the type checker folded e to a constant
// (constant concat happens at compile time — no runtime garbage).
func isConstExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}
