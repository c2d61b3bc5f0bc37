package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"speedkit/internal/gdpr"
)

// ObsLabels guards the telemetry surface of the GDPR boundary. Metric
// labels are exported verbatim by /metrics — to operators, scrape agents,
// and whatever stores the time series — so a PII-derived label value is a
// personal-data leak through the monitoring side channel. The analyzer
// pins that no obs label is built from identity: constant label keys must
// not be PII-classified field names, and label value expressions must not
// touch values whose types come from internal/session or internal/gdpr.
// (Shared infrastructure may import obs: obs links neither, and
// gdprboundary rejects any import chain that reaches one.)
//
// The same discipline covers the structured log: slog field keys and
// values (Str, Int, Uint, Bool, Dur, Err, Msg, Named) are exported to
// whatever collects stderr, so they get the identical static fence —
// constant keys must not be PII-classified names, values must not read
// identity-bearing types. The runtime denied-key redaction in slog is
// the second line of defense, not a license to rely on it.
//
// Test files are exempt: the obs registry's own tests exercise the
// runtime PII rejection with deliberately illegal keys.
var ObsLabels = &Analyzer{
	Name: "obslabels",
	Doc: "obs label and slog field keys/values must not be PII-classified " +
		"or derived from identity-bearing types",
	Run: runObsLabels,
}

func runObsLabels(pass *Pass) {
	// The obs and slog packages host the runtime validation; analyzing
	// their internals (and deliberately illegal test inputs) adds nothing.
	if pathHasSegment(pass.Path, "internal/obs") || pathHasSegment(pass.Path, "internal/slog") {
		return
	}

	pii := map[string]bool{}
	for _, name := range gdpr.PIIFields() {
		pii[name] = true
	}

	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if key, value, ok := obsLabelCall(pass, n); ok {
					checkLabelKey(pass, pii, key, "obs label")
					checkLabelValue(pass, value, "obs label")
				}
				if key, value, ok := slogFieldCall(pass, n); ok {
					if key != nil {
						checkLabelKey(pass, pii, key, "log field")
					}
					if value != nil {
						checkLabelValue(pass, value, "log field")
					}
				}
			case *ast.CompositeLit:
				if key, value, ok := obsLabelLit(pass, n); ok {
					if key != nil {
						checkLabelKey(pass, pii, key, "obs label")
					}
					if value != nil {
						checkLabelValue(pass, value, "obs label")
					}
				}
			}
			return true
		})
	}
}

// obsLabelCall recognizes obs.L(key, value) calls and returns the two
// argument expressions.
func obsLabelCall(pass *Pass, call *ast.CallExpr) (key, value ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "L" || len(call.Args) != 2 {
		return nil, nil, false
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || !pathHasSegment(obj.Pkg().Path(), "internal/obs") {
		return nil, nil, false
	}
	return call.Args[0], call.Args[1], true
}

// obsLabelLit recognizes obs.Label{...} composite literals and returns
// the key/value expressions (either may be nil when omitted).
func obsLabelLit(pass *Pass, lit *ast.CompositeLit) (key, value ast.Expr, ok bool) {
	tv, found := pass.Info.Types[lit]
	if !found {
		return nil, nil, false
	}
	named, isNamed := tv.Type.(*types.Named)
	if !isNamed || named.Obj().Name() != "Label" || named.Obj().Pkg() == nil ||
		!pathHasSegment(named.Obj().Pkg().Path(), "internal/obs") {
		return nil, nil, false
	}
	for i, el := range lit.Elts {
		if kv, isKV := el.(*ast.KeyValueExpr); isKV {
			if ident, isIdent := kv.Key.(*ast.Ident); isIdent {
				switch ident.Name {
				case "Key":
					key = kv.Value
				case "Value":
					value = kv.Value
				}
			}
			continue
		}
		// Positional form: Label{key, value}.
		switch i {
		case 0:
			key = el
		case 1:
			value = el
		}
	}
	return key, value, true
}

// slogFieldCall recognizes method calls on the structured logger that
// place caller-controlled strings on the log record, and returns the
// key/value expressions to check (either may be nil: Msg/Err/Named
// carry only a value, and non-string field setters carry only keyed
// non-string data whose key still must not be a PII name).
func slogFieldCall(pass *Pass, call *ast.CallExpr) (key, value ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || !pathHasSegment(fn.Pkg().Path(), "internal/slog") {
		return nil, nil, false
	}
	switch fn.Name() {
	case "Str":
		if len(call.Args) == 2 {
			return call.Args[0], call.Args[1], true
		}
	case "Int", "Uint", "Bool", "Dur":
		if len(call.Args) == 2 {
			return call.Args[0], nil, true
		}
	case "Msg", "Err", "Named":
		if len(call.Args) == 1 {
			return nil, call.Args[0], true
		}
	}
	return nil, nil, false
}

// checkLabelKey reports constant label/field keys that name
// PII-classified fields. Non-constant keys are left to the runtime
// validation — a dynamic key is already rejected at registration (obs)
// or redacted at the sink (slog).
func checkLabelKey(pass *Pass, pii map[string]bool, expr ast.Expr, noun string) {
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	if key := constant.StringVal(tv.Value); pii[key] {
		pass.Reportf(expr.Pos(), "%s key %q is a PII-classified field name", noun, key)
	}
}

// checkLabelValue reports label/field value expressions that read from
// identity-bearing values: any identifier or field selection whose type
// (or receiver type) comes from internal/session or internal/gdpr.
func checkLabelValue(pass *Pass, expr ast.Expr, noun string) {
	reported := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[n]; ok && isIdentityType(sel.Recv()) {
				pass.Reportf(n.Pos(),
					"%s value reads %s from identity-bearing type %s", noun, n.Sel.Name, sel.Recv())
				reported = true
				return false
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil && isIdentityType(obj.Type()) {
				pass.Reportf(n.Pos(),
					"%s value uses identity-bearing value %s (%s)", noun, n.Name, obj.Type())
				reported = true
				return false
			}
		}
		return true
	})
}

// isIdentityType reports whether t (unwrapped of pointers, slices, and
// maps) is a named type declared in an identity-bearing package.
func isIdentityType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return false
			}
			path := named.Obj().Pkg().Path()
			for _, seg := range identityBearingSegments {
				if pathHasSegment(path, seg) {
					return true
				}
			}
			return false
		}
	}
}
