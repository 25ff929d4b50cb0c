package vetdriver

// These tests drive Main through the real `go vet -vettool` unit
// protocol: a scratch module is listed with `go list -export`, per-unit
// config files are written the way cmd/go writes them, and the target
// unit type-checks against the dependency's compiler export data. The
// exit-code assertions are the regression guard for CI failing (not
// warning) on findings.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kpj/internal/analysis"
	"kpj/internal/analysis/errwrap"
	"kpj/internal/analysis/loadpkg"
)

// writeFixtureModule lays out the two-package scratch module and
// returns its root: fa declares an error sentinel; fb compares against
// it by identity, which errwrap can only see through fa's export data.
func writeFixtureModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module kpj\n\ngo 1.22\n",
		"fa/fa.go": `package fa

import "errors"

// ErrStop is a sentinel callers must match with errors.Is.
var ErrStop = errors.New("stop")

// Limit is not an error.
var Limit = 3
`,
		"fb/fb.go": `package fb

import "kpj/fa"

func Stopped(err error, n int) bool {
	return err == fa.ErrStop || n == fa.Limit
}
`,
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func writeConfig(t *testing.T, dir string, cfg *Config) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cfg.ID+".cfg")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// requireEmptyFile asserts the unit wrote the (empty) output file the
// build cache expects.
func requireEmptyFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("unit wrote no vetx file: %v", err)
	}
	if len(data) != 0 {
		t.Errorf("vetx file should be empty, got %q", data)
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	root := writeFixtureModule(t)
	metas, err := loadpkg.List(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*loadpkg.Meta{}
	for _, m := range metas {
		byPath[m.ImportPath] = m
	}
	fa, fb := byPath["kpj/fa"], byPath["kpj/fb"]
	if fa == nil || fb == nil {
		t.Fatalf("go list did not return the fixture packages: %v", byPath)
	}

	goFiles := func(m *loadpkg.Meta) []string {
		out := make([]string, len(m.GoFiles))
		for i, f := range m.GoFiles {
			out[i] = filepath.Join(m.Dir, f)
		}
		return out
	}

	scratch := t.TempDir()
	analyzers := []*analysis.Analyzer{errwrap.Analyzer}

	// Unit 1: the dependency, as cmd/go schedules it ahead of its
	// importers: nothing to analyze, but the output file must exist.
	cfgA := &Config{
		ID:         "fa",
		Compiler:   "gc",
		Dir:        root,
		ImportPath: "kpj/fa",
		GoFiles:    goFiles(fa),
		ImportMap:  map[string]string{},
		VetxOnly:   true,
		VetxOutput: filepath.Join(scratch, "fa.vetx"),
	}
	var stderrA bytes.Buffer
	if code := Main(writeConfig(t, scratch, cfgA), &stderrA, analyzers); code != 0 {
		t.Fatalf("VetxOnly unit exited %d, want 0; stderr:\n%s", code, stderrA.String())
	}
	if stderrA.Len() != 0 {
		t.Errorf("VetxOnly unit printed diagnostics: %s", stderrA.String())
	}
	requireEmptyFile(t, cfgA.VetxOutput)

	// Unit 2: the dependent target, type-checked against the
	// dependency's export data.
	cfgB := &Config{
		ID:          "fb",
		Compiler:    "gc",
		Dir:         root,
		ImportPath:  "kpj/fb",
		GoFiles:     goFiles(fb),
		ImportMap:   map[string]string{"kpj/fa": "kpj/fa"},
		PackageFile: map[string]string{"kpj/fa": fa.Export},
		VetxOutput:  filepath.Join(scratch, "fb.vetx"),
	}
	var stderrB bytes.Buffer
	code := Main(writeConfig(t, scratch, cfgB), &stderrB, analyzers)
	if code != 1 {
		t.Fatalf("target unit with findings exited %d, want 1; stderr:\n%s", code, stderrB.String())
	}
	out := stderrB.String()
	if !strings.Contains(out, "fb.go:6:") || !strings.Contains(out, "comparison against error sentinel ErrStop") {
		t.Errorf("diagnostic does not name the site and the imported sentinel:\n%s", out)
	}
	if strings.Contains(out, "Limit") {
		t.Errorf("comparison against a non-error variable was flagged:\n%s", out)
	}
	requireEmptyFile(t, cfgB.VetxOutput)

	// Exit-code regression: the same findings under VetxOnly are
	// suppressed (exit 0), so only the target unit fails the build.
	cfgB.ID = "fb-vetxonly"
	cfgB.VetxOnly = true
	var stderrC bytes.Buffer
	if code := Main(writeConfig(t, scratch, cfgB), &stderrC, analyzers); code != 0 {
		t.Fatalf("VetxOnly target exited %d, want 0", code)
	}
	if stderrC.Len() != 0 {
		t.Errorf("VetxOnly target printed diagnostics: %s", stderrC.String())
	}
}

// TestStdlibUnitWritesEmptyVetx covers the unit cmd/go schedules most
// often, a standard-library dependency: no sources are read, and the
// output file the build cache expects is still produced.
func TestStdlibUnitWritesEmptyVetx(t *testing.T) {
	scratch := t.TempDir()
	cfg := &Config{
		ID:         "std",
		ImportPath: "strings",
		VetxOnly:   true,
		VetxOutput: filepath.Join(scratch, "std.vetx"),
	}
	var stderr bytes.Buffer
	if code := Main(writeConfig(t, scratch, cfg), &stderr, nil); code != 0 {
		t.Fatalf("stdlib unit exited %d, want 0", code)
	}
	requireEmptyFile(t, cfg.VetxOutput)
}
