// Package dataflow is a stdlib-only, summary-based interprocedural
// dataflow engine over go/types and the AST. It exists so the lint suite
// can prove *value-level* properties — "no PII value reaches a WAL
// frame" — where the original analyzers could only check imports and
// names.
//
// The engine works bottom-up over the static call graph: every function
// gets a transfer summary (which inputs flow to which outputs, which
// inputs reach which sinks), strongly connected components are iterated
// to a fixpoint so recursion converges, and its client (piiflow)
// interprets the summaries against its own source/sink catalog. It is deliberately AST-level rather than SSA-level: the
// repo keeps zero dependencies, so golang.org/x/tools/go/ssa is off the
// table, and a flow-insensitive abstract interpretation of the syntax is
// exact enough for the boundary properties checked here while staying a
// few hundred lines.
//
// Approximations, chosen to favor soundness at the boundary:
//
//   - flow-insensitive within a function: an assignment taints the
//     variable for the whole function body;
//   - calls through interfaces or function values use a conservative
//     default summary (taint of every argument flows to every result);
//   - state-mediated flows (store a value in a struct field in one call,
//     read it back in another) are not tracked across functions — sinks
//     are therefore declared at the API boundary where values enter a
//     subsystem, not at its internal write points;
//   - numeric and boolean values are always clean: durations, counts, and
//     flags cannot carry a PII string, and cutting them keeps structs
//     that hold both identity and bookkeeping (a proxy with its sessions
//     and its latency counters) from tainting all their arithmetic. A
//     codebase keeping identifiers in integers would need this cut
//     revisited; this repo's identifiers are strings.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package presented to the engine.
// The lint loader's packages convert to this shape directly; keeping a
// local type avoids an import cycle between the engine and its clients.
type Package struct {
	// Path is the package's import path (or a fixture's synthetic path).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// FuncInfo is one module-local function or method known to the engine.
type FuncInfo struct {
	// Obj is the type-checker's object for the function.
	Obj *types.Func
	// Decl is the syntax, always with a non-nil Body.
	Decl *ast.FuncDecl
	// Pkg is the package the function is declared in.
	Pkg *Package
	// Callees lists the module-local functions this function calls
	// directly (deduplicated, deterministic order).
	Callees []*FuncInfo
}

// Name returns a human-readable name: "pkg.Func" or "pkg.(*T).Method".
func (f *FuncInfo) Name() string {
	obj := f.Obj
	pkg := ""
	if obj.Pkg() != nil {
		parts := strings.Split(obj.Pkg().Path(), "/")
		pkg = parts[len(parts)-1] + "."
	}
	if recv := recvOf(obj); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "(" + ptr + named.Obj().Name() + ")." + obj.Name()
		}
	}
	return pkg + obj.Name()
}

// Program is the engine's whole-module view: every function with a body,
// the call graph between them, and the bottom-up analysis order.
type Program struct {
	Pkgs []*Package
	// Funcs indexes every module-local function with a body.
	Funcs map[*types.Func]*FuncInfo
	// order lists SCCs of the call graph in bottom-up (callee-first)
	// order; each SCC lists its members deterministically.
	order [][]*FuncInfo
}

// NewProgram indexes the packages and builds the call graph. Packages
// are analyzed in the order given; pass them sorted for deterministic
// output.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs, Funcs: map[*types.Func]*FuncInfo{}}
	var all []*FuncInfo
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				p.Funcs[obj] = fi
				all = append(all, fi)
			}
		}
	}
	// Call edges: direct calls to module-local functions, including
	// method calls with a statically known concrete receiver. Interface
	// dispatch resolves to the interface method object, which is not in
	// the index, so it falls through to the conservative default — that
	// is the intended approximation.
	for _, fi := range all {
		seen := map[*FuncInfo]bool{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := p.CalleeOf(fi.Pkg, call); callee != nil && !seen[callee] {
				seen[callee] = true
				fi.Callees = append(fi.Callees, callee)
			}
			return true
		})
		sort.Slice(fi.Callees, func(i, j int) bool {
			return fi.Callees[i].Obj.Pos() < fi.Callees[j].Obj.Pos()
		})
	}
	p.order = sccOrder(all)
	return p
}

// FuncsOf returns the package's functions in source order.
func (p *Program) FuncsOf(pkg *Package) []*FuncInfo {
	var out []*FuncInfo
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					if fi := p.Funcs[obj]; fi != nil {
						out = append(out, fi)
					}
				}
			}
		}
	}
	return out
}

// CalleeOf resolves a call expression to the module-local function it
// invokes, or nil when the callee is unknown (interface method, function
// value, builtin, out-of-module function).
func (p *Program) CalleeOf(pkg *Package, call *ast.CallExpr) *FuncInfo {
	if fn := calleeFunc(pkg.Info, call); fn != nil {
		return p.Funcs[fn]
	}
	return nil
}

// calleeFunc resolves the *types.Func a call statically dispatches to,
// out-of-module callees included, or nil for dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		// Method call or qualified package function. For methods, Uses
		// resolves interface methods to the interface's *types.Func —
		// Program.Funcs lookup then misses, which keeps dispatch through
		// interfaces conservative.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if sel, ok := info.Selections[fun]; ok && sel.Kind() != types.MethodVal {
				return nil // method expression / method value: dynamic use
			}
			return fn
		}
	}
	return nil
}

// BottomUp visits every function in callee-before-caller order. Mutually
// recursive functions (one SCC) are visited as a group: visit is called
// for each member, and the whole group is repeated until visit reports
// no change for any member, so summaries converge to a fixpoint.
func (p *Program) BottomUp(visit func(*FuncInfo) (changed bool)) {
	for _, scc := range p.order {
		for {
			changed := false
			for _, fi := range scc {
				if visit(fi) {
					changed = true
				}
			}
			if !changed || len(scc) == 0 {
				break
			}
			// A singleton without self-recursion cannot change twice.
			if len(scc) == 1 && !callsSelf(scc[0]) {
				break
			}
		}
	}
}

func callsSelf(fi *FuncInfo) bool {
	for _, c := range fi.Callees {
		if c == fi {
			return true
		}
	}
	return false
}

// sccOrder computes strongly connected components of the call graph with
// Tarjan's algorithm and returns them in reverse topological (bottom-up,
// callee-first) order.
func sccOrder(all []*FuncInfo) [][]*FuncInfo {
	index := map[*FuncInfo]int{}
	lowlink := map[*FuncInfo]int{}
	onStack := map[*FuncInfo]bool{}
	var stack []*FuncInfo
	var sccs [][]*FuncInfo
	next := 0

	var strongconnect func(v *FuncInfo)
	strongconnect = func(v *FuncInfo) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range v.Callees {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var scc []*FuncInfo
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			// Deterministic member order within the component.
			sort.Slice(scc, func(i, j int) bool { return scc[i].Obj.Pos() < scc[j].Obj.Pos() })
			sccs = append(sccs, scc)
		}
	}
	for _, v := range all {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	// Tarjan emits components callee-first already.
	return sccs
}

// recvOf returns the receiver variable of a method, or nil.
func recvOf(fn *types.Func) *types.Var {
	if sig, ok := fn.Type().(*types.Signature); ok {
		return sig.Recv()
	}
	return nil
}

// paramVars returns the unified input list of a function: receiver
// first (if any), then the declared parameters.
func paramVars(fn *types.Func) []*types.Var {
	sig := fn.Type().(*types.Signature)
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}
