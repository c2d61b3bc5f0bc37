package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"unicode"
)

// FieldClass grades a struct field name for the taint analysis.
type FieldClass int

const (
	// FieldPII marks fields whose reads from identity-declared types
	// generate taint and whose writes are tracked field-sensitively.
	// Unknown names should classify here — the fail-closed direction.
	FieldPII FieldClass = iota
	// FieldClean marks fields explicitly classified anonymous or
	// pseudonymous: reading one does not inherit the holder's
	// identity-value taint (u.Region is shareable even though u is not).
	FieldClean
)

// TaintConfig is a taint-analysis client: what creates taint, what cuts
// it, and where tainted values must never arrive.
type TaintConfig struct {
	// ClassifyField grades a canonical (snake_case) field name. Nil
	// treats every field as FieldPII.
	ClassifyField func(canonical string) FieldClass
	// IsIdentityPkg reports whether the package path declares
	// identity-bearing types (session, gdpr). Any value of a type named
	// in such a package is itself tainted: serializing a whole
	// session.User carries its PII fields with it.
	IsIdentityPkg func(pkgPath string) bool
	// IsSanitizer reports whether calling fn cuts taint: its results are
	// clean regardless of its arguments (hashing, anonymization).
	IsSanitizer func(fn *types.Func) bool
	// Sinks catalogs the calls tainted values must not reach.
	Sinks []SinkSpec
}

func (c *TaintConfig) classify(canonical string) FieldClass {
	if c.ClassifyField == nil {
		return FieldPII
	}
	return c.ClassifyField(canonical)
}

// SinkSpec describes one sink: a callee plus which of its inputs are
// sensitive.
type SinkSpec struct {
	// Description names the sink in findings, e.g. "WAL append".
	Description string
	// Match reports whether fn is this sink. fn may be declared in any
	// package (module-local or imported, interface methods included).
	Match func(fn *types.Func) bool
	// Params lists the sensitive inputs as unified indices (receiver is
	// 0 when present, then declared parameters). Nil means every
	// declared parameter but NOT the receiver: the receiver is the sink
	// object itself (a tracer, a log), not data crossing the boundary.
	Params []int
	// CallerScoped, when non-nil, restricts the sink to calls made from
	// packages it accepts — used for universal callees like fmt.Printf
	// that are only a boundary violation inside shared infrastructure.
	CallerScoped func(callerPkgPath string) bool
}

// Finding is one tainted-value-reaches-sink report.
type Finding struct {
	// Pos is the call through which the taint enters the sink-reaching
	// path, in the function where the taint originates.
	Pos token.Pos
	// Pkg is the package the finding is reported in.
	Pkg *Package
	// Sink is the sink's description.
	Sink string
	// Sources describes the taint origins ("session.User.Email").
	Sources []string
	// Chain is the call path from the reported call to the sink; a
	// direct sink call has length 1.
	Chain []string
}

// maxSources bounds the origin descriptors carried per taint so chains
// through merge-heavy code cannot grow summaries without bound.
const maxSources = 4

// Taint is the abstract value of the analysis: which function inputs a
// value derives from, whether (and from what) it is PII-fresh, and —
// one level deep — per-PII-field taints for struct values.
type Taint struct {
	params uint64
	srcs   []string // sorted, deduped, ≤ maxSources; non-empty = fresh
	fields map[string]Taint
}

func (t Taint) fresh() bool { return len(t.srcs) > 0 }

func (t Taint) empty() bool { return t.params == 0 && len(t.srcs) == 0 && len(t.fields) == 0 }

// full flattens per-field taints into the base: the taint of using the
// value as a whole (passing the struct itself somewhere).
func (t Taint) full() Taint {
	out := Taint{params: t.params, srcs: t.srcs}
	for _, ft := range t.fields {
		out.params |= ft.params
		out.srcs = mergeSrcs(out.srcs, ft.srcs)
	}
	return out
}

// base strips field taints: the taint of the value ignoring what was
// stored in tracked PII fields.
func (t Taint) base() Taint { return Taint{params: t.params, srcs: t.srcs} }

// union merges two taints without mutating either.
func union(a, b Taint) Taint {
	if b.empty() {
		return a
	}
	if a.empty() {
		return b
	}
	out := Taint{params: a.params | b.params, srcs: mergeSrcs(a.srcs, b.srcs)}
	if len(a.fields) > 0 || len(b.fields) > 0 {
		out.fields = map[string]Taint{}
		for k, v := range a.fields {
			out.fields[k] = v.base()
		}
		for k, v := range b.fields {
			out.fields[k] = union(out.fields[k], v.base())
		}
	}
	return out
}

func mergeSrcs(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 && len(b) <= maxSources {
		return b
	}
	seen := map[string]bool{}
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	if len(out) > maxSources {
		out = out[:maxSources]
	}
	return out
}

// covers reports whether a already subsumes b — the fixpoint
// termination test. A taint whose source list is saturated counts as
// covering any further sources, which keeps the lattice finite.
func covers(a, b Taint) bool {
	af, bf := a.full(), b.full()
	if af.params&bf.params != bf.params {
		return false
	}
	if len(af.srcs) >= maxSources {
		return true
	}
	have := map[string]bool{}
	for _, s := range af.srcs {
		have[s] = true
	}
	for _, s := range bf.srcs {
		if !have[s] {
			return false
		}
	}
	return true
}

// sinkReach records that one function input reaches a sink, with the
// call chain discovered first (stable across fixpoint rounds).
type sinkReach struct {
	desc  string
	chain []string
}

// taintSummary is a function's transfer summary.
type taintSummary struct {
	// results holds, per result index, the taint of the returned value
	// expressed over the function's own inputs (param bits) plus any
	// fresh sources generated inside.
	results []Taint
	// paramSinks maps a unified input index to the sinks it reaches,
	// keyed by sink description.
	paramSinks map[int]map[string]sinkReach
}

// TaintAnalysis holds the interprocedural analysis state.
type TaintAnalysis struct {
	prog *Program
	cfg  TaintConfig
	sums map[*FuncInfo]*taintSummary
}

// NewTaintAnalysis computes summaries for every function bottom-up over
// the call graph, iterating each strongly connected component to a
// fixpoint.
func NewTaintAnalysis(prog *Program, cfg TaintConfig) *TaintAnalysis {
	ta := &TaintAnalysis{prog: prog, cfg: cfg, sums: map[*FuncInfo]*taintSummary{}}
	prog.BottomUp(func(fi *FuncInfo) bool {
		return ta.computeSummary(fi)
	})
	return ta
}

// Findings re-walks every function with the converged summaries and
// reports each place a fresh (PII-originated) taint enters a
// sink-reaching call. Output order follows package and source order.
func (ta *TaintAnalysis) Findings() []Finding {
	var out []Finding
	seen := map[string]bool{}
	for _, pkg := range ta.prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := ta.prog.Funcs[obj]
				if fi == nil {
					continue
				}
				fn := newFuncAnalysis(ta, fi)
				fn.solve()
				fn.walkBody(fn.fi.Decl.Body, func(f Finding) {
					key := fmt.Sprintf("%d|%s", f.Pos, f.Sink)
					if !seen[key] {
						seen[key] = true
						out = append(out, f)
					}
				})
			}
		}
	}
	return out
}

// computeSummary (re)derives fi's summary; reports whether it grew.
func (ta *TaintAnalysis) computeSummary(fi *FuncInfo) bool {
	fn := newFuncAnalysis(ta, fi)
	fn.solve()
	next := &taintSummary{results: fn.results, paramSinks: fn.sinks}
	prev := ta.sums[fi]
	ta.sums[fi] = next
	return prev == nil || summaryGrew(prev, next)
}

func summaryGrew(prev, next *taintSummary) bool {
	for i, t := range next.results {
		if i >= len(prev.results) || !covers(prev.results[i], t) {
			return true
		}
	}
	for p, sinks := range next.paramSinks {
		for desc := range sinks {
			if _, ok := prev.paramSinks[p][desc]; !ok {
				return true
			}
		}
	}
	return false
}

// funcAnalysis is the intraprocedural solver for one function: a
// flow-insensitive abstract interpretation iterated to a local fixpoint.
type funcAnalysis struct {
	ta   *TaintAnalysis
	fi   *FuncInfo
	info *types.Info

	vars    map[types.Object]Taint
	results []Taint
	sinks   map[int]map[string]sinkReach
	changed bool
}

func newFuncAnalysis(ta *TaintAnalysis, fi *FuncInfo) *funcAnalysis {
	fa := &funcAnalysis{
		ta:    ta,
		fi:    fi,
		info:  fi.Pkg.Info,
		vars:  map[types.Object]Taint{},
		sinks: map[int]map[string]sinkReach{},
	}
	for i, p := range paramVars(fi.Obj) {
		if i < 64 {
			fa.vars[p] = Taint{params: 1 << uint(i)}
		}
	}
	sig := fi.Obj.Type().(*types.Signature)
	fa.results = make([]Taint, sig.Results().Len())
	return fa
}

// solve iterates the body walk until the environment stops growing. The
// round cap is a safety net; the lattice is finite so real code
// converges in a handful of rounds.
func (fa *funcAnalysis) solve() {
	for round := 0; round < 32; round++ {
		fa.changed = false
		fa.walkBody(fa.fi.Decl.Body, nil)
		if !fa.changed {
			return
		}
	}
}

// bind unions t into the taint of obj. Numeric and boolean variables
// never bind taint, matching the eval-side cut.
func (fa *funcAnalysis) bind(obj types.Object, t Taint) {
	if obj == nil || t.empty() {
		return
	}
	if b, ok := obj.Type().Underlying().(*types.Basic); ok &&
		b.Info()&(types.IsNumeric|types.IsBoolean) != 0 {
		return
	}
	cur := fa.vars[obj]
	if covers(cur, t) && coversFields(cur, t) {
		return
	}
	fa.vars[obj] = union(cur, t)
	fa.changed = true
}

func coversFields(a, b Taint) bool {
	for k, v := range b.fields {
		if !covers(a.fields[k], v) {
			return false
		}
	}
	return true
}

// bindField unions t into one tracked PII field of obj.
func (fa *funcAnalysis) bindField(obj types.Object, field string, t Taint) {
	if obj == nil || t.empty() {
		return
	}
	cur := fa.vars[obj]
	if covers(cur.fields[field], t) {
		return
	}
	next := Taint{params: cur.params, srcs: cur.srcs, fields: map[string]Taint{}}
	for k, v := range cur.fields {
		next.fields[k] = v
	}
	next.fields[field] = union(next.fields[field], t.full())
	fa.vars[obj] = next
	fa.changed = true
}

// walkBody processes every statement and call; emit is nil while
// solving and set during the reporting pass.
func (fa *funcAnalysis) walkBody(body *ast.BlockStmt, emit func(Finding)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fa.assign(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := fa.info.Defs[name]
				if len(n.Values) == len(n.Names) {
					fa.bind(obj, fa.eval(n.Values[i]))
				} else if len(n.Values) == 1 {
					fa.bind(obj, fa.evalCallResult(n.Values[0], i))
				}
			}
		case *ast.ReturnStmt:
			fa.ret(n)
		case *ast.RangeStmt:
			t := fa.eval(n.X).full()
			if n.Key != nil {
				fa.bind(fa.defOrUse(n.Key), t)
			}
			if n.Value != nil {
				fa.bind(fa.defOrUse(n.Value), t)
			}
		case *ast.TypeSwitchStmt:
			fa.typeSwitch(n)
		case *ast.SendStmt:
			if root := rootIdentObj(fa.info, n.Chan); root != nil {
				fa.bind(root, fa.eval(n.Value).full())
			}
		case *ast.CallExpr:
			// Single point where sinks and summaries are applied; every
			// call expression is visited here regardless of context.
			fa.call(n, emit)
		}
		return true
	})
}

func (fa *funcAnalysis) defOrUse(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := fa.info.Defs[id]; obj != nil {
			return obj
		}
		return fa.info.Uses[id]
	}
	return nil
}

func (fa *funcAnalysis) assign(n *ast.AssignStmt) {
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		for i, lhs := range n.Lhs {
			fa.assignOne(lhs, fa.evalCallResult(n.Rhs[0], i))
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i < len(n.Rhs) {
			fa.assignOne(lhs, fa.eval(n.Rhs[i]))
		}
	}
}

func (fa *funcAnalysis) assignOne(lhs ast.Expr, t Taint) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		fa.bind(fa.defOrUse(lhs), t)
	case *ast.SelectorExpr:
		root := rootIdentObj(fa.info, lhs.X)
		if root == nil {
			return
		}
		canon := CanonicalField(lhs.Sel.Name)
		if fa.isFieldSel(lhs) && fa.ta.cfg.classify(canon) == FieldPII {
			// Field-sensitive write: s.Email = v taints exactly the
			// tracked "email" slot of s.
			fa.bindField(root, canon, t)
			return
		}
		fa.bind(root, t.full())
	case *ast.IndexExpr:
		if root := rootIdentObj(fa.info, lhs.X); root != nil {
			fa.bind(root, t.full())
		}
	case *ast.StarExpr:
		if root := rootIdentObj(fa.info, lhs.X); root != nil {
			fa.bind(root, t.full())
		}
	}
}

func (fa *funcAnalysis) ret(n *ast.ReturnStmt) {
	if len(n.Results) == 0 {
		return
	}
	if len(n.Results) == 1 && len(fa.results) > 1 {
		for i := range fa.results {
			fa.mergeResult(i, fa.evalCallResult(n.Results[0], i))
		}
		return
	}
	for i, r := range n.Results {
		if i < len(fa.results) {
			fa.mergeResult(i, fa.eval(r).full())
		}
	}
}

func (fa *funcAnalysis) mergeResult(i int, t Taint) {
	sig := fa.fi.Obj.Type().(*types.Signature)
	if b, ok := sig.Results().At(i).Type().Underlying().(*types.Basic); ok &&
		b.Info()&(types.IsNumeric|types.IsBoolean) != 0 {
		return
	}
	t = t.full()
	if !covers(fa.results[i], t) {
		fa.results[i] = union(fa.results[i], t)
		fa.changed = true
	}
}

func (fa *funcAnalysis) typeSwitch(n *ast.TypeSwitchStmt) {
	var x ast.Expr
	switch a := n.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				x = ta.X
			}
		}
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	}
	if x == nil {
		return
	}
	t := fa.eval(x).full()
	for _, stmt := range n.Body.List {
		if clause, ok := stmt.(*ast.CaseClause); ok {
			if obj := fa.info.Implicits[clause]; obj != nil {
				fa.bind(obj, t)
			}
		}
	}
}

// eval computes the taint of an expression. Expressions of numeric or
// boolean type are always clean: a duration, count, or flag cannot carry
// a PII string, and without this cut every struct that holds both
// identity and bookkeeping (a proxy with its sessions AND its latency
// counters) would taint all its arithmetic. The trade-off — numeric
// identifiers would slip through — is documented in the package doc;
// this repo's identifiers are strings.
func (fa *funcAnalysis) eval(e ast.Expr) Taint {
	t := fa.evalExpr(e)
	if !t.empty() && fa.numericOrBool(e) {
		return Taint{}
	}
	return t
}

func (fa *funcAnalysis) numericOrBool(e ast.Expr) bool {
	tv, ok := fa.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0
}

func (fa *funcAnalysis) evalExpr(e ast.Expr) Taint {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return fa.evalIdent(e)
	case *ast.SelectorExpr:
		return fa.evalSelector(e)
	case *ast.CallExpr:
		return fa.evalCallResult(e, 0)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			// Comparisons yield a decision, not the data; implicit flows
			// are out of scope for this engine.
			return Taint{}
		}
		return union(fa.eval(e.X).full(), fa.eval(e.Y).full())
	case *ast.UnaryExpr:
		return fa.eval(e.X)
	case *ast.StarExpr:
		return fa.eval(e.X)
	case *ast.IndexExpr:
		return fa.eval(e.X).full()
	case *ast.SliceExpr:
		return fa.eval(e.X)
	case *ast.TypeAssertExpr:
		return fa.eval(e.X)
	case *ast.CompositeLit:
		return fa.evalCompositeLit(e)
	case *ast.KeyValueExpr:
		return fa.eval(e.Value)
	case *ast.FuncLit:
		return fa.evalFuncLit(e)
	}
	return Taint{}
}

// evalFuncLit gives a function literal the taint of what it returns: a
// sink that takes a callback (a checkpoint's export) receives whatever
// calling it yields. Literals nested inside return to someone else.
func (fa *funcAnalysis) evalFuncLit(lit *ast.FuncLit) Taint {
	var t Taint
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				t = union(t, fa.eval(r).full())
			}
		}
		return true
	})
	return t
}

func (fa *funcAnalysis) evalIdent(e *ast.Ident) Taint {
	obj := fa.info.Uses[e]
	if obj == nil {
		obj = fa.info.Defs[e]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return Taint{}
	}
	t := fa.vars[v]
	if fa.isIdentityValue(v.Type()) {
		t = union(t, Taint{srcs: []string{typeDesc(v.Type()) + " value"}})
	}
	return t
}

// evalSelector handles x.F: PII-source genesis, per-field tracking, and
// classification-aware propagation of the holder's taint.
func (fa *funcAnalysis) evalSelector(sel *ast.SelectorExpr) Taint {
	obj := fa.info.Uses[sel.Sel]
	if _, isFunc := obj.(*types.Func); isFunc {
		// Method value or qualified function: function values carry no
		// data taint (their calls are handled at the call site).
		return Taint{}
	}
	if !fa.isFieldSel(sel) {
		// Qualified package variable.
		if v, ok := obj.(*types.Var); ok && fa.isIdentityValue(v.Type()) {
			return Taint{srcs: []string{typeDesc(v.Type()) + " value"}}
		}
		return Taint{}
	}

	canon := CanonicalField(sel.Sel.Name)
	base := fa.eval(sel.X)
	holder := fa.selectionRecv(sel)

	var t Taint
	if fa.ta.cfg.classify(canon) == FieldPII {
		t = base.base()
		t = union(t, base.fields[canon])
		if holder != nil && fa.isIdentityValue(holder) {
			t = union(t, Taint{srcs: []string{typeDesc(holder) + "." + sel.Sel.Name}})
		}
	} else {
		// Explicitly anonymous/pseudonymous field: it does not inherit
		// the "whole value is identity" genesis of its holder (u.Region
		// is shareable even though u is not), but taint that was
		// *assigned* into the struct still propagates.
		t = base.base()
		if holder != nil {
			t.srcs = dropSource(t.srcs, typeDesc(holder)+" value")
		}
	}
	if v, ok := obj.(*types.Var); ok && fa.isIdentityValue(v.Type()) {
		t = union(t, Taint{srcs: []string{typeDesc(v.Type()) + " value"}})
	}
	return t
}

// dropSource removes one descriptor from a source list.
func dropSource(srcs []string, drop string) []string {
	var out []string
	for _, s := range srcs {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}

func (fa *funcAnalysis) isFieldSel(sel *ast.SelectorExpr) bool {
	s, ok := fa.info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// selectionRecv returns the type the field was selected from, or nil.
func (fa *funcAnalysis) selectionRecv(sel *ast.SelectorExpr) types.Type {
	if s, ok := fa.info.Selections[sel]; ok {
		return s.Recv()
	}
	return nil
}

func (fa *funcAnalysis) evalCompositeLit(lit *ast.CompositeLit) Taint {
	var t Taint
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				canon := CanonicalField(key.Name)
				if _, isField := fa.info.Uses[key].(*types.Var); (isField || fa.info.Defs[key] == nil && fa.info.Uses[key] == nil) && fa.ta.cfg.classify(canon) == FieldPII {
					// Struct literal keyed by a tracked PII field: keep
					// it field-sensitive like an assignment would.
					vt := fa.eval(kv.Value).full()
					if !vt.empty() {
						if t.fields == nil {
							t.fields = map[string]Taint{}
						}
						t.fields[canon] = union(t.fields[canon], vt)
					}
					continue
				}
			}
			t = union(t, fa.eval(kv.Value).full().base())
			continue
		}
		t = union(t, fa.eval(el).full().base())
	}
	return t
}

// evalCallResult evaluates a call expression's i-th result (or, for
// non-call expressions, the expression itself when i == 0).
func (fa *funcAnalysis) evalCallResult(e ast.Expr, i int) Taint {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		if i == 0 {
			return fa.eval(e)
		}
		return Taint{}
	}
	perIdx, def := fa.call(call, nil)
	if t, ok := perIdx[i]; ok {
		return t
	}
	return def
}

// call processes one call expression: sink checks, summary application,
// and result taint. It returns per-result taints plus a default for
// indices not present (used by the conservative unknown-callee rule).
// The emit hook is non-nil only during the reporting pass.
func (fa *funcAnalysis) call(call *ast.CallExpr, emit func(Finding)) (perIdx map[int]Taint, def Taint) {
	info := fa.info

	// Type conversion: T(x) propagates x.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return map[int]Taint{0: fa.eval(call.Args[0])}, Taint{}
		}
		return nil, Taint{}
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "len", "cap", "make", "new", "delete", "panic", "print", "println", "clear", "close", "recover":
				return nil, Taint{}
			default: // append, copy, min, max, ...
				var t Taint
				for _, a := range call.Args {
					t = union(t, fa.eval(a).full())
				}
				return map[int]Taint{0: t}, Taint{}
			}
		}
	}

	fn := calleeFunc(info, call)

	// Sanitizers cut taint entirely.
	if fn != nil && fa.ta.cfg.IsSanitizer != nil && fa.ta.cfg.IsSanitizer(fn) {
		return nil, Taint{}
	}

	inputs := callInputs(info, call, fn)

	// Sink catalog (matches both concrete and interface callees).
	if fn != nil {
		for si := range fa.ta.cfg.Sinks {
			spec := &fa.ta.cfg.Sinks[si]
			if !spec.Match(fn) {
				continue
			}
			if spec.CallerScoped != nil && !spec.CallerScoped(fa.fi.Pkg.Path) {
				continue
			}
			fa.applySink(call, fn, spec, inputs, emit)
		}
	}

	// Module-local callee with a computed summary.
	if fi := fa.ta.prog.Funcs[fn]; fi != nil {
		sum := fa.ta.sums[fi]
		if sum == nil {
			// In-SCC callee not yet summarized this round; the fixpoint
			// loop re-runs until stable.
			return nil, Taint{}
		}
		fa.applyParamSinks(call, fi, sum, inputs, emit)
		perIdx = map[int]Taint{}
		for ri, rt := range sum.results {
			perIdx[ri] = fa.instantiate(rt, inputs)
		}
		return perIdx, Taint{}
	}

	// Unknown callee (stdlib, interface dispatch, function value):
	// conservative — taint of every input flows to every result.
	var t Taint
	for _, in := range inputs {
		if in != nil {
			t = union(t, fa.eval(in).full())
		}
	}
	return nil, t
}

// instantiate maps a summary taint (over callee inputs) to caller-side
// taint at a call site.
func (fa *funcAnalysis) instantiate(t Taint, inputs []ast.Expr) Taint {
	out := Taint{srcs: t.srcs}
	for i, in := range inputs {
		if i < 64 && t.params&(1<<uint(i)) != 0 && in != nil {
			out = union(out, fa.eval(in).full())
		}
	}
	return out
}

// applySink records (and during reporting, emits) taint flowing into a
// catalog sink call.
func (fa *funcAnalysis) applySink(call *ast.CallExpr, fn *types.Func, spec *SinkSpec, inputs []ast.Expr, emit func(Finding)) {
	indices := spec.Params
	if indices == nil {
		start := 0
		if recvOf(fn) != nil {
			start = 1
		}
		for i := start; i < len(inputs); i++ {
			indices = append(indices, i)
		}
	}
	for _, idx := range indices {
		if idx >= len(inputs) || inputs[idx] == nil {
			continue
		}
		t := fa.eval(inputs[idx]).full()
		if t.empty() {
			continue
		}
		chain := []string{funcDesc(fn)}
		fa.recordParamSinks(t, spec.Description, chain)
		if emit != nil && t.fresh() {
			emit(Finding{
				Pos:     call.Pos(),
				Pkg:     fa.fi.Pkg,
				Sink:    spec.Description,
				Sources: t.srcs,
				Chain:   chain,
			})
		}
	}
}

// applyParamSinks propagates a callee's param→sink reaches to this call
// site.
func (fa *funcAnalysis) applyParamSinks(call *ast.CallExpr, callee *FuncInfo, sum *taintSummary, inputs []ast.Expr, emit func(Finding)) {
	if len(sum.paramSinks) == 0 {
		return
	}
	var params []int
	for p := range sum.paramSinks {
		params = append(params, p)
	}
	sort.Ints(params)
	for _, p := range params {
		if p >= len(inputs) || inputs[p] == nil {
			continue
		}
		t := fa.eval(inputs[p]).full()
		if t.empty() {
			continue
		}
		var descs []string
		for desc := range sum.paramSinks[p] {
			descs = append(descs, desc)
		}
		sort.Strings(descs)
		for _, desc := range descs {
			reach := sum.paramSinks[p][desc]
			chain := append([]string{callee.Name()}, reach.chain...)
			fa.recordParamSinks(t, desc, chain)
			if emit != nil && t.fresh() {
				emit(Finding{
					Pos:     call.Pos(),
					Pkg:     fa.fi.Pkg,
					Sink:    desc,
					Sources: t.srcs,
					Chain:   chain,
				})
			}
		}
	}
}

// recordParamSinks extends this function's own summary for every input
// whose taint reaches the sink.
func (fa *funcAnalysis) recordParamSinks(t Taint, desc string, chain []string) {
	for p := 0; p < 64; p++ {
		if t.params&(1<<uint(p)) == 0 {
			continue
		}
		m := fa.sinks[p]
		if m == nil {
			m = map[string]sinkReach{}
			fa.sinks[p] = m
		}
		if _, ok := m[desc]; !ok {
			m[desc] = sinkReach{desc: desc, chain: chain}
			fa.changed = true
		}
	}
}

// callInputs returns the unified input expressions of a call: receiver
// (nil when implicit) followed by arguments. For dynamic method calls
// (fn == nil but the syntax is a method-value selection) the receiver is
// still included so its taint participates in the conservative rule.
func callInputs(info *types.Info, call *ast.CallExpr, fn *types.Func) []ast.Expr {
	var inputs []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			inputs = append(inputs, sel.X)
		} else if fn != nil && recvOf(fn) != nil {
			inputs = append(inputs, nil)
		}
	} else if fn != nil && recvOf(fn) != nil {
		inputs = append(inputs, nil)
	}
	for _, a := range call.Args {
		inputs = append(inputs, a)
	}
	return inputs
}

// isIdentityValue reports whether t (unwrapped of pointers, slices,
// arrays, maps, channels) is a named type declared in an identity
// package.
func (fa *funcAnalysis) isIdentityValue(t types.Type) bool {
	if fa.ta.cfg.IsIdentityPkg == nil {
		return false
	}
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil && fa.ta.cfg.IsIdentityPkg(named.Obj().Pkg().Path())
}

func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeDesc renders a type as "pkg.Name" for findings.
func typeDesc(t types.Type) string {
	named := namedOf(t)
	if named == nil {
		return t.String()
	}
	pkg := ""
	if named.Obj().Pkg() != nil {
		parts := strings.Split(named.Obj().Pkg().Path(), "/")
		pkg = parts[len(parts)-1] + "."
	}
	return pkg + named.Obj().Name()
}

// funcDesc renders a callee as "pkg.Func" or "pkg.(*T).Method".
func funcDesc(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		parts := strings.Split(fn.Pkg().Path(), "/")
		pkg = parts[len(parts)-1] + "."
	}
	if recv := recvOf(fn); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "(" + ptr + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// rootIdentObj resolves the base identifier object of an lvalue-ish
// expression: s in s.F, s[i], *s, (&s). Nil when the base is not a
// simple identifier.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// CanonicalField converts a Go field name to the snake_case form the
// gdpr classification uses: "UserID" → "user_id", "Email" → "email".
func CanonicalField(name string) string {
	var b strings.Builder
	runes := []rune(name)
	for i, r := range runes {
		if unicode.IsUpper(r) {
			prevLower := i > 0 && !unicode.IsUpper(runes[i-1])
			nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
