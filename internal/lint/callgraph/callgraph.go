// Package callgraph builds a conservative static call graph for one
// type-checked package at a time, for the interprocedural sslint
// analyzers (purity, racecapture). It resolves three call shapes:
//
//   - static calls: package functions, methods on concrete receivers,
//     and function/method values whose defining object is visible;
//   - interface method calls: resolved by class-hierarchy analysis over
//     a Universe of every named type seen so far in the run — packages
//     are analyzed bottom-up, so by the time a caller is processed the
//     universe already holds every concrete type its interfaces could
//     carry;
//   - calls through function-valued locals and parameters: the callee is
//     unknown, which the analyzers handle conservatively (a function
//     literal's effects are attributed to the function that created it,
//     so any value that could flow into such a call was already
//     accounted for where it was built).
//
// Function literals are not graph nodes: their bodies belong to the
// enclosing declared function, which is what makes "a closure handed to
// the pool taints its creator" fall out of plain edge propagation.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Universe is the set of named types available for interface resolution.
// The driver adds every analyzed package bottom-up; AddPackage is cheap
// and idempotent per package.
type Universe struct {
	seen  map[*types.Package]bool
	named []*types.Named
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{seen: make(map[*types.Package]bool)}
}

// AddPackage records pkg's package-level named types (sorted by name, so
// later resolution walks them deterministically).
func (u *Universe) AddPackage(pkg *types.Package) {
	if pkg == nil || u.seen[pkg] {
		return
	}
	u.seen[pkg] = true
	scope := pkg.Scope()
	names := scope.Names() // already sorted
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			u.named = append(u.named, named)
		}
	}
}

// Implementers returns the concrete methods that an interface-method call
// sel could dispatch to: for every named non-interface type T in the
// universe where T or *T implements iface, the method with sel's name.
// Results are sorted by full name for deterministic downstream iteration.
func (u *Universe) Implementers(iface *types.Interface, method string) []*types.Func {
	if iface == nil || iface.NumMethods() == 0 {
		return nil // interface{} dispatches anywhere; callers treat nil as unknown
	}
	var out []*types.Func
	for _, named := range u.named {
		if types.IsInterface(named) {
			continue
		}
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// Call is one resolved call site inside a function.
type Call struct {
	// Pos is the call's position (the CallExpr's Lparen-side start).
	Pos token.Pos
	// Expr is the call expression itself.
	Expr *ast.CallExpr
	// Static is the single statically-resolved callee, if any: a package
	// function, a method on a concrete receiver, or the target of a
	// function/method value reference.
	Static *types.Func
	// Dynamic holds the conservative callee set of an interface method
	// call (class-hierarchy analysis over the Universe). Empty for
	// static calls and for calls through bare function values.
	Dynamic []*types.Func
	// Interface names the interface method for Dynamic calls, for
	// diagnostics ("via SearchEngine.Rank").
	Interface string
}

// Node is one declared function with its resolved call sites, in source
// order. Calls inside function literals nested in the declaration are
// attributed to the declaration.
type Node struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Calls []Call
}

// Graph holds one package's nodes in source order.
type Graph struct {
	Nodes []*Node
}

// Build constructs the call graph of one package from its syntax and type
// information, resolving interface calls against u.
func Build(files []*ast.File, info *types.Info, u *Universe) *Graph {
	g := &Graph{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Fn: fn, Decl: fd}
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				if c, ok := resolve(call, info, u); ok {
					n.Calls = append(n.Calls, c)
				}
				return true
			})
			g.Nodes = append(g.Nodes, n)
		}
	}
	return g
}

// resolve classifies one call expression. Conversions, builtins and calls
// through bare function values yield ok=false (no edge; see the package
// comment for why that is sound enough here).
func resolve(call *ast.CallExpr, info *types.Info, u *Universe) (Call, bool) {
	c := Call{Pos: call.Pos(), Expr: call}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			c.Static = fn
			return c, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn := sel.Obj().(*types.Func)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				c.Dynamic = u.Implementers(iface, fn.Name())
				c.Interface = recvName(sel.Recv()) + "." + fn.Name()
				return c, true
			}
			c.Static = fn
			return c, true
		}
		// Qualified package function (pkg.F) or method expression.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			c.Static = fn
			return c, true
		}
	}
	return Call{}, false
}

// recvName renders a receiver type for diagnostics ("simweb.Fetcher").
func recvName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}
