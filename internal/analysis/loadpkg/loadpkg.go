// Package loadpkg loads type-checked packages for the kpjlint analyzers
// without depending on golang.org/x/tools/go/packages: it shells out to
// `go list -export -deps -json` for package metadata and compiler export
// data (produced into the build cache, so this works offline), parses
// the target packages' sources with the stdlib parser, and type-checks
// them with the stdlib gc importer reading that export data.
package loadpkg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Meta is the subset of `go list -json` output the driver needs.
type Meta struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Export     string
	Error      *struct{ Err string }
}

// List runs `go list -export -deps -json` in dir (the module root; ""
// means the current directory) on the given patterns and returns the
// decoded package stream, dependencies included.
func List(dir string, patterns ...string) ([]*Meta, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,Standard,DepOnly,GoFiles,Export,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loadpkg: go list %v: %w\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []*Meta
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		m := new(Meta)
		if err := dec.Decode(m); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loadpkg: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, m)
	}
	return pkgs, nil
}

// ExportMap extracts importPath → export-data file for every listed
// package that has one (the unsafe pseudo-package never does).
func ExportMap(pkgs []*Meta) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m
}

// Importer returns a types.Importer resolving import paths through the
// export-data files in exports.
func Importer(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loadpkg: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// A Package bundles one type-checked package's syntax and types.
type Package struct {
	Meta  *Meta
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Check parses and type-checks the named files as package path, using
// imp to resolve imports.
func Check(fset *token.FileSet, path string, filenames []string, imp types.Importer) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	conf := &types.Config{Importer: imp}
	info := NewInfo()
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return files, pkg, info, nil
}

// LoadTargets loads every non-DepOnly, non-standard package matched by
// patterns (relative to dir) as fully type-checked Packages. Packages
// with no buildable Go files are skipped.
func LoadTargets(dir string, patterns ...string) ([]*Package, error) {
	metas, err := List(dir, patterns...)
	if err != nil {
		return nil, err
	}
	for _, m := range metas {
		if m.Error != nil && !m.DepOnly {
			return nil, fmt.Errorf("loadpkg: %s: %s", m.ImportPath, m.Error.Err)
		}
	}
	fset := token.NewFileSet()
	imp := Importer(fset, ExportMap(metas))
	var out []*Package
	for _, m := range metas {
		if m.DepOnly || m.Standard || len(m.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(m.GoFiles))
		for i, f := range m.GoFiles {
			filenames[i] = filepath.Join(m.Dir, f)
		}
		files, pkg, info, err := Check(fset, m.ImportPath, filenames, imp)
		if err != nil {
			return nil, fmt.Errorf("loadpkg: type-checking %s: %w", m.ImportPath, err)
		}
		out = append(out, &Package{Meta: m, Fset: fset, Files: files, Pkg: pkg, Info: info})
	}
	return out, nil
}
