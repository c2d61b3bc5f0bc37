package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkPkg type-checks one synthetic package from source and returns it
// in the engine's shape.
func checkPkg(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check(path, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{file}, Types: pkg, Info: info}
}

// testConfig builds a TaintConfig resembling the piiflow client: the
// synthetic package "idpkg" is identity-bearing, fields "email" and
// "user_id" are PII while "region" is clean, Scrub is a sanitizer, and
// Emit is the lone sink.
func testConfig() TaintConfig {
	return TaintConfig{
		ClassifyField: func(canonical string) FieldClass {
			switch canonical {
			case "region", "path", "product_id":
				return FieldClean
			}
			return FieldPII
		},
		IsIdentityPkg: func(p string) bool { return p == "tstpkg" },
		IsSanitizer: func(fn *types.Func) bool {
			return fn.Name() == "Scrub"
		},
		Sinks: []SinkSpec{{
			Description: "emit sink",
			Match:       func(fn *types.Func) bool { return strings.HasPrefix(fn.Name(), "Emit") },
		}},
	}
}

func findings(t *testing.T, src string) []Finding {
	t.Helper()
	pkg := checkPkg(t, "tstpkg", src)
	prog := NewProgram([]*Package{pkg})
	ta := NewTaintAnalysis(prog, testConfig())
	return ta.Findings()
}

const idPrelude = `package tstpkg

type User struct {
	Email  string
	UserID string
	Region string
}

func Emit(s string) {}
func Scrub(s string) string { return "x" + "" }
`

func TestTaintDirectFlow(t *testing.T) {
	fs := findings(t, idPrelude+`
func leak(u User) {
	Emit(u.Email)
}
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %d: %+v", len(fs), fs)
	}
	if fs[0].Sink != "emit sink" {
		t.Fatalf("sink = %q", fs[0].Sink)
	}
}

func TestTaintTwoHopFlow(t *testing.T) {
	fs := findings(t, idPrelude+`
func leak(u User) {
	relay(u.Email)
}

func relay(s string) { inner(s) }

func inner(s string) { Emit(s) }
`)
	// One finding in leak (where PII originates) — the chain walks
	// relay -> inner -> Emit.
	var got *Finding
	for i := range fs {
		if strings.Contains(fs[i].Chain[0], "relay") {
			got = &fs[i]
		}
	}
	if got == nil {
		t.Fatalf("no finding entering relay: %+v", fs)
	}
	if len(got.Chain) != 3 {
		t.Fatalf("chain = %v, want 3 hops", got.Chain)
	}
}

func TestTaintSanitizerCutsFlow(t *testing.T) {
	fs := findings(t, idPrelude+`
func ok(u User) {
	Emit(Scrub(u.Email))
}
`)
	if len(fs) != 0 {
		t.Fatalf("sanitized flow reported: %+v", fs)
	}
}

func TestTaintCleanFieldNotTainted(t *testing.T) {
	fs := findings(t, idPrelude+`
func ok(u User) {
	Emit(u.Region)
}
`)
	if len(fs) != 0 {
		t.Fatalf("clean field reported: %+v", fs)
	}
}

func TestTaintFieldSensitiveStore(t *testing.T) {
	fs := findings(t, idPrelude+`
func leak(u User) {
	var v User
	v.Email = u.Email
	Emit(v.Email)
}

func ok(u User) {
	var v User
	v.Email = u.Email
	Emit(v.Region)
}
`)
	if len(fs) != 1 {
		t.Fatalf("want exactly the v.Email flow, got %d: %+v", len(fs), fs)
	}
}

func TestTaintThroughLocalsAndReturns(t *testing.T) {
	fs := findings(t, idPrelude+`
func pick(u User) string { return u.Email }

func leak(u User) {
	s := pick(u)
	t := s + "!"
	Emit(t)
}
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %d: %+v", len(fs), fs)
	}
}

func TestTaintRecursionConverges(t *testing.T) {
	fs := findings(t, idPrelude+`
func ping(s string, n int) string {
	if n == 0 {
		return s
	}
	return pong(s, n-1)
}

func pong(s string, n int) string {
	return ping(s, n)
}

func leak(u User) {
	Emit(ping(u.Email, 3))
}
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding through mutual recursion, got %d: %+v", len(fs), fs)
	}
}

func TestTaintComparisonDoesNotCarry(t *testing.T) {
	fs := findings(t, idPrelude+`
func ok(u User) {
	if u.Email == "x" {
		Emit("constant")
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("comparison carried taint: %+v", fs)
	}
}

func TestTaintIdentityValueWhole(t *testing.T) {
	// Identity genesis: a value whose type is declared in an identity
	// package is tainted as a whole — serializing the struct itself
	// carries its PII fields with it.
	fs := findings(t, idPrelude+`
func EmitAny(v interface{}) {}

func leak(u User) {
	EmitAny(u)
}
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding for whole-value leak, got %d: %+v", len(fs), fs)
	}
	joined := strings.Join(fs[0].Sources, ",")
	if !strings.Contains(joined, "User value") {
		t.Fatalf("sources = %v, want identity-value genesis", fs[0].Sources)
	}
}

func TestBottomUpOrder(t *testing.T) {
	pkg := checkPkg(t, "tstpkg", `package tstpkg

func a() { b() }
func b() { c() }
func c() {}
`)
	prog := NewProgram([]*Package{pkg})
	var order []string
	prog.BottomUp(func(fi *FuncInfo) bool {
		order = append(order, fi.Obj.Name())
		return false
	})
	if len(order) != 3 || order[0] != "c" || order[2] != "a" {
		t.Fatalf("bottom-up order = %v, want [c b a]", order)
	}
}

func TestCanonicalField(t *testing.T) {
	cases := map[string]string{
		"UserID":    "user_id",
		"Email":     "email",
		"IP":        "ip",
		"HashedID":  "hashed_id",
		"ABBucket":  "ab_bucket",
		"ProductID": "product_id",
		"Name":      "name",
	}
	for in, want := range cases {
		if got := CanonicalField(in); got != want {
			t.Errorf("CanonicalField(%q) = %q, want %q", in, got, want)
		}
	}
}
