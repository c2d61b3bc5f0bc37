package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("speedkit/internal/cache"), or the synthetic
	// path a fixture was loaded under.
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	testFiles map[*ast.File]bool
	// deps maps each module-local import path of Files, test files'
	// too, to its loaded package.
	deps map[string]*Package
}

// Module loads and type-checks packages of a single Go module without the
// go command: module-local imports resolve against the module root, and
// everything else (the module has zero dependencies, so "everything else"
// is the standard library) goes through go/importer's source importer.
// All packages share one FileSet and one importer so that types compare
// identical across packages.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// ModPath is the module path declared in go.mod.
	ModPath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles, which go/types would otherwise
	// chase forever.
	loading map[string]bool
}

// LoadModule opens the module rooted at or above dir.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Module{
		Root:    root,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and declared module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// LoadAll loads every package in the module, skipping testdata, vendor,
// and hidden directories. Packages are returned sorted by import path.
func (m *Module) LoadAll() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGoFiles(path)
		if err != nil {
			return err
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(m.Root, path)
		if err != nil {
			return err
		}
		importPath := m.ModPath
		if rel != "." {
			importPath = m.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := m.Import(importPath)
		if err != nil {
			return fmt.Errorf("lint: loading %s: %w", importPath, err)
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// Import loads the package with the given module-local import path,
// type-checking it (and, transitively, its module-local imports) from
// source. Results are cached.
func (m *Module) Import(path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(path, m.ModPath)
	dir := filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	return m.LoadDir(dir, path)
}

// LoadDir loads the package in dir under the given import path. The path
// does not need to correspond to dir's real location — fixture tests use
// this to present testdata packages to path-sensitive analyzers under
// paths like "fixture/internal/cdn".
func (m *Module) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	testFiles := map[*ast.File]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		// External test packages (package foo_test) are separate units;
		// analyzing them would need the package-under-test's test exports.
		// Every invariant the suite checks exempts test code anyway.
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles[f] = true
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go source in %s", dir)
	}
	// Library files first so struct declarations precede test-file uses in
	// analyzer traversal order; stable order within each group.
	sort.SliceStable(files, func(i, j int) bool {
		ti, tj := testFiles[files[i]], testFiles[files[j]]
		if ti != tj {
			return !ti
		}
		return m.fset.Position(files[i].Pos()).Filename < m.fset.Position(files[j].Pos()).Filename
	})

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: moduleImporter{m}}
	tpkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	// Type-checking loaded every module-local import; anything else is
	// the standard library, which imports no module package.
	deps := map[string]*Package{}
	for _, f := range files {
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if dep, ok := m.pkgs[p]; ok {
				deps[p] = dep
			}
		}
	}
	pkg := &Package{
		Path:      path,
		Dir:       dir,
		Fset:      m.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		testFiles: testFiles,
		deps:      deps,
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// moduleImporter routes module-local imports through the Module and
// everything else through the shared source importer.
type moduleImporter struct{ m *Module }

func (mi moduleImporter) Import(path string) (*types.Package, error) {
	m := mi.m
	if path == m.ModPath || strings.HasPrefix(path, m.ModPath+"/") {
		pkg, err := m.Import(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}
