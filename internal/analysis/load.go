package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the package loader: it resolves ./dir/... patterns to
// module packages, parses their non-test files and typechecks them with
// go/types. Imports inside the module are loaded recursively from
// source (memoized, cycle-checked); everything else goes through the
// toolchain's export-data importer, falling back to the source importer
// when export data is unavailable — both stdlib, so the module keeps
// zero external dependencies.

// Loader loads and typechecks packages of one module.
type Loader struct {
	// Fset resolves positions for every loaded file.
	Fset *token.FileSet
	// ModuleRoot is the directory holding go.mod.
	ModuleRoot string
	// ModulePath is the module's declared import path ("repro").
	ModulePath string

	units   map[string]*Unit // by import path, module packages only
	loading map[string]bool  // cycle guard
	gc      types.Importer   // export-data importer (may fail per path)
	source  types.Importer   // source importer fallback
	stdMemo map[string]*types.Package
}

// NewLoader creates a loader rooted at the directory holding go.mod,
// searching upward from dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		units:      map[string]*Unit{},
		loading:    map[string]bool{},
		gc:         importer.Default(),
		source:     importer.ForCompiler(fset, "source", nil),
		stdMemo:    map[string]*types.Package{},
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// Load resolves patterns (a directory like ./internal/serving, or a
// recursive ./internal/... form, relative to the module root) and
// returns the matched packages typechecked, in deterministic order.
func (l *Loader) Load(patterns ...string) ([]*Unit, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	units := make([]*Unit, 0, len(dirs))
	for _, dir := range dirs {
		u, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// expand turns one pattern into package directories (relative to the
// module root). testdata directories are skipped in recursive patterns,
// matching the go tool's convention.
func (l *Loader) expand(pat string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
	}
	rel := strings.TrimPrefix(pat, "./")
	base := filepath.Join(l.ModuleRoot, rel)
	if !recursive {
		return []string{rel}, nil
	}
	var out []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if files, err := goFilesIn(path); err == nil && len(files) > 0 {
			relDir, err := filepath.Rel(l.ModuleRoot, path)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(relDir))
		}
		return nil
	})
	return out, err
}

// goFilesIn lists the directory's non-test .go files that the go tool
// would build for this platform — file-name GOOS/GOARCH suffixes and
// //go:build lines both apply — sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		files = append(files, name)
	}
	sort.Strings(files)
	return files, nil
}

// LoadDir loads and typechecks the package in the given directory
// (relative to the module root), memoized by import path.
func (l *Loader) LoadDir(rel string) (*Unit, error) {
	path := l.ModulePath
	if rel != "" && rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.loadModulePkg(path)
}

// loadModulePkg loads a package of this module by import path.
func (l *Loader) loadModulePkg(path string) (*Unit, error) {
	if u, ok := l.units[path]; ok {
		return u, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %q: %w", path, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) { return l.importPkg(p) }),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: typechecking %q: %v", path, typeErrs[0])
	}
	u := &Unit{Path: path, Dir: dir, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}
	l.units[path] = u
	return u, nil
}

// importPkg resolves one import: module packages recurse through the
// source loader; everything else tries export data first, then the
// source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		u, err := l.loadModulePkg(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	if p, ok := l.stdMemo[path]; ok {
		return p, nil
	}
	p, err := l.gc.Import(path)
	if err != nil {
		p, err = l.source.Import(path)
		if err != nil {
			return nil, fmt.Errorf("analysis: importing %q: %w", path, err)
		}
	}
	l.stdMemo[path] = p
	return p, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
