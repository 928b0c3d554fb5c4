package analysis

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
	"strings"
)

// Package is one loaded, parsed and type-checked module-local package.
type Package struct {
	// Path is the import path ("repro/internal/serve").
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Fset is the loader's shared FileSet; positions render relative to
	// the loader root.
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads module-local packages with nothing but the standard
// library: module-local import paths are mapped to directories under
// the module root and type-checked from source; everything else (the
// module has zero dependencies, so "everything else" is the standard
// library) is delegated to go/importer's source importer.
type Loader struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Module is the module path from go.mod ("repro").
	Module string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles, which would otherwise
	// recurse forever; go/build would have rejected them anyway.
	loading map[string]bool
}

// NewLoader creates a loader rooted at the directory containing go.mod,
// searching upward from dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		Module:  module,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Import implements types.Importer so the loader can hand itself to
// types.Config: module-local paths load recursively through the loader,
// anything else goes to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the module-local package with the given
// import path (memoized). Test files are excluded: the invariants
// ektelo-lint enforces guard production behavior, and external test
// packages would need a second type-check universe.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: package %s: %w", path, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// Positions are registered repo-root-relative so diagnostics are
		// stable regardless of where the tool runs from.
		relFile := filepath.ToSlash(filepath.Join(rel, name))
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, relFile, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: package %s: no non-test Go files in %s", path, dir)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadTree loads every package under the given module-relative roots
// (e.g. "internal", "cmd"), skipping testdata and hidden directories
// and directories with no non-test Go files. Results come back in
// deterministic path order.
func (l *Loader) LoadTree(roots ...string) ([]*Package, error) {
	var paths []string
	for _, root := range roots {
		base := filepath.Join(l.Root, filepath.FromSlash(root))
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				rel, err := filepath.Rel(l.Root, p)
				if err != nil {
					return err
				}
				paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
