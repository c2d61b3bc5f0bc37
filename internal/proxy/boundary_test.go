package proxy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const sessionPkg = "speedkit/internal/session"

// reaches reports the first type reachable from t that is declared in
// package pkg, following pointers, slices, arrays, maps, channels, struct
// fields, and function and interface-method signatures.
func reaches(t reflect.Type, pkg string, seen map[reflect.Type]bool) (reflect.Type, bool) {
	if seen[t] {
		return nil, false
	}
	seen[t] = true
	if t.PkgPath() == pkg {
		return t, true
	}
	var next []reflect.Type
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		next = append(next, t.Elem())
	case reflect.Map:
		next = append(next, t.Key(), t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			next = append(next, t.Field(i).Type)
		}
	case reflect.Func:
		next = append(next, signature(t)...)
	case reflect.Interface:
		for i := 0; i < t.NumMethod(); i++ {
			next = append(next, t.Method(i).Type)
		}
	}
	for _, n := range next {
		if found, ok := reaches(n, pkg, seen); ok {
			return found, true
		}
	}
	return nil, false
}

func signature(fn reflect.Type) []reflect.Type {
	var ts []reflect.Type
	for i := 0; i < fn.NumIn(); i++ {
		ts = append(ts, fn.In(i))
	}
	for i := 0; i < fn.NumOut(); i++ {
		ts = append(ts, fn.Out(i))
	}
	return ts
}

// TestSharedCarriesNoIdentity pins the boundary the paper's compliance
// rests on: no type of the session package is reachable from any
// parameter or result of a Shared method, so no implementation of the
// shared channel can be handed the user. FirstParty, which carries the
// user on purpose, is the control that the walk finds one.
func TestSharedCarriesNoIdentity(t *testing.T) {
	shared := reflect.TypeOf((*Shared)(nil)).Elem()
	for i := 0; i < shared.NumMethod(); i++ {
		m := shared.Method(i)
		for _, typ := range signature(m.Type) {
			if found, ok := reaches(typ, sessionPkg, map[reflect.Type]bool{}); ok {
				t.Errorf("Shared.%s reaches %v through %v", m.Name, found, typ)
			}
		}
	}
	first := reflect.TypeOf((*FirstParty)(nil)).Elem()
	if _, ok := reaches(first, sessionPkg, map[reflect.Type]bool{}); !ok {
		t.Fatal("the walk finds no session type from FirstParty; it would miss one on Shared")
	}
}

// TestNoSimulatorImports: the device, its HTTP transport, the edge and
// the HTTP server know nothing of the network simulator. The one
// exception is harness.go, the pre-split Transport that exists for the
// load harness until it moves to NewSplit.
func TestNoSimulatorImports(t *testing.T) {
	const netsim = "speedkit/internal/netsim"
	for _, dir := range []string{".", "../httpclient", "../httpapi", "../edge"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") || (dir == "." && filepath.Base(name) == "harness.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == netsim {
					t.Errorf("%s imports %s", name, netsim)
				}
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("no Go files checked in %s", dir)
		}
	}
}

// TestHarnessNames: each package's harness.go holds exactly the names
// kept only for the load harness, so a new one is added on purpose and a
// deleted one is taken off the list.
func TestHarnessNames(t *testing.T) {
	for dir, want := range map[string][]string{
		".": {"Transport", "region", "network", "New", "regioned", "regioned.FetchSketch", "regioned.Fetch",
			"regioned.Revalidate", "regioned.FetchBlocks", "Joined", "Joined.FetchSketch", "Joined.Fetch",
			"Joined.Revalidate", "Joined.FetchBlocks"},
		"../core":       {"Service.FetchSketch", "Service.Fetch", "Service.FetchBlocks", "Service.Engine"},
		"../httpclient": {"New"},
	} {
		name := filepath.Join(dir, "harness.go")
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					fn = recv.(*ast.Ident).Name + "." + fn
				}
				got = append(got, fn)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						got = append(got, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s declares %q, want %q", name, got, want)
		}
	}
}
