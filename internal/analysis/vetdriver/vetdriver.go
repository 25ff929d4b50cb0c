// Package vetdriver executes kpjlint analyzers under the `go vet
// -vettool` protocol: the go command hands the tool a JSON config file
// describing one compilation unit (sources, the import map, and
// compiler export-data files for every dependency), the tool
// type-checks the unit with the stdlib gc importer over that export
// data, runs the analyzers, prints findings to stderr, and exits
// non-zero if there were any. The config schema mirrors
// golang.org/x/tools/go/analysis/unitchecker.Config, which is the
// contract cmd/go encodes; only the fields this suite needs are read.
// kpjlint analyzers exchange nothing between packages, so dependency
// units — VetxOnly configs — are a no-op that just writes the empty
// output file the build cache expects.
package vetdriver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"sort"

	"kpj/internal/analysis"
	"kpj/internal/analysis/loadpkg"
)

// Config is the compilation-unit description `go vet` writes for the
// tool (x/tools unitchecker.Config schema; unused fields omitted).
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Run processes one vet config file and exits the process with the
// protocol's status: 0 clean, 1 findings, fatal on internal errors.
func Run(configFile string, analyzers []*analysis.Analyzer) {
	os.Exit(Main(configFile, os.Stderr, analyzers))
}

// Main is Run without the final os.Exit: it returns the exit status the
// protocol demands so the go command's vet harness — and the regression
// tests — observe findings as a non-zero status, never as a warning.
func Main(configFile string, stderr io.Writer, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(configFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", configFile, err)
	}

	// The build cache expects the unit's output file regardless; the
	// suite has nothing to put in it, so it is always empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatalf("writing vetx output: %v", err)
		}
	}
	if cfg.VetxOnly {
		// Dependency unit: its diagnostics belong to the package's own
		// target unit.
		return 0
	}

	fset := token.NewFileSet()
	files, pkg, info, err := check(fset, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatal(err)
	}

	diags := Analyze(analyzers, fset, files, pkg, info)
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// check type-checks the unit's sources against the export data the
// build system supplied. Import paths go through cfg.ImportMap (which
// resolves vendoring) before the PackageFile lookup.
func check(fset *token.FileSet, cfg *Config) ([]*ast.File, *types.Package, *types.Info, error) {
	compilerImporter := loadpkg.Importer(fset, cfg.PackageFile)
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("vetdriver: can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})

	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	conf := &types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	info := loadpkg.NewInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return files, pkg, info, nil
}

// Analyze runs the analyzers over one type-checked package and returns
// the findings, each attributed to its analyzer, in deterministic
// (position, message) order.
func Analyze(analyzers []*analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		name := a.Name
		pass := analysis.NewPass(a, fset, files, pkg, info, func(d analysis.Diagnostic) {
			if d.Analyzer == "" {
				d.Analyzer = name
			}
			diags = append(diags, d)
		})
		if err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s: %v", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
