// Command kpjlint is the project's static-analysis suite: six custom
// analyzers (mapiter, nondeterm, boundcheck, errwrap, atomicmix,
// directive) that machine-check the engine's determinism, budget, and
// error-contract invariants (see DESIGN.md "Invariants and kpjlint").
//
// It speaks the `go vet -vettool` protocol, so the canonical invocation
// is
//
//	go build -o /tmp/kpjlint ./cmd/kpjlint
//	go vet -vettool=/tmp/kpjlint ./...
//
// and it also runs standalone on package patterns (loading packages
// itself through `go list -export`):
//
//	go run ./cmd/kpjlint ./...
//
// Individual analyzers toggle with -NAME=false (or run an exclusive
// subset with -NAME). Findings print as file:line:col: message and make
// the exit status non-zero; -json and -sarif switch the output to the
// machine-readable formats in internal/analysis/emit.go. Escape hatches
// are the //kpjlint: directive comments documented in DESIGN.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"kpj/internal/analysis"
	"kpj/internal/analysis/atomicmix"
	"kpj/internal/analysis/boundcheck"
	"kpj/internal/analysis/directive"
	"kpj/internal/analysis/errwrap"
	"kpj/internal/analysis/loadpkg"
	"kpj/internal/analysis/mapiter"
	"kpj/internal/analysis/nondeterm"
	"kpj/internal/analysis/vetdriver"
)

var suite = []*analysis.Analyzer{
	mapiter.Analyzer,
	nondeterm.Analyzer,
	boundcheck.Analyzer,
	errwrap.Analyzer,
	atomicmix.Analyzer,
	directive.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kpjlint: ")

	printflags := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	flag.Var(versionFlag{}, "V", "print version and exit (go vet protocol)")
	jsonOut := flag.Bool("json", false, "standalone mode: emit findings as a JSON array on stdout")
	sarifOut := flag.Bool("sarif", false, "standalone mode: emit findings as a SARIF 2.1.0 log on stdout")
	enabled := make(map[string]*string, len(suite))
	for _, a := range suite {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = flag.String(a.Name, "", "enable/disable: "+doc)
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kpjlint [flags] [packages | unit.cfg]\n")
		flag.PrintDefaults()
		os.Exit(2)
	}
	flag.Parse()

	if *printflags {
		printFlags()
		return
	}

	analyzers := selectAnalyzers(enabled)
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		vetdriver.Run(args[0], analyzers)
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	format := formatText
	switch {
	case *jsonOut && *sarifOut:
		log.Fatal("-json and -sarif are mutually exclusive")
	case *jsonOut:
		format = formatJSON
	case *sarifOut:
		format = formatSARIF
	}
	os.Exit(standalone(args, analyzers, format))
}

// selectAnalyzers applies the -NAME flags with go vet's semantics: any
// -NAME=true runs only the named subset; otherwise -NAME=false drops
// the named ones.
func selectAnalyzers(enabled map[string]*string) []*analysis.Analyzer {
	set := map[string]bool{}
	var hasTrue bool
	for name, v := range enabled {
		switch *v {
		case "":
			continue
		case "true", "1", "t":
			set[name] = true
			hasTrue = true
		case "false", "0", "f":
			set[name] = false
		default:
			log.Fatalf("invalid boolean value %q for -%s", *v, name)
		}
	}
	var keep []*analysis.Analyzer
	for _, a := range suite {
		on, named := set[a.Name]
		if hasTrue && (!named || !on) {
			continue
		}
		if named && !on {
			continue
		}
		keep = append(keep, a)
	}
	return keep
}

// printFlags emits the flag description JSON `go vet` consumes to learn
// which flags it may forward to the tool. Only the analyzer toggles are
// advertised; the standalone-mode flags (-json, -sarif) stay local.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		switch f.Name {
		case "V", "flags", "json", "sarif":
			return
		}
		flags = append(flags, jsonFlag{Name: f.Name, Bool: true, Usage: f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

type outputFormat int

const (
	formatText outputFormat = iota
	formatJSON
	formatSARIF
)

// standalone loads and analyzes the pattern-matched packages and emits
// the findings in global deterministic order. Returns the exit status:
// 1 for findings.
func standalone(patterns []string, analyzers []*analysis.Analyzer, format outputFormat) int {
	pkgs, err := loadpkg.LoadTargets("", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	var findings []analysis.Finding
	for _, p := range pkgs {
		for _, d := range vetdriver.Analyze(analyzers, p.Fset, p.Files, p.Pkg, p.Info) {
			findings = append(findings, analysis.NewFinding(p.Fset, d))
		}
	}

	analysis.SortFindings(findings)
	switch format {
	case formatJSON:
		if err := analysis.WriteJSON(os.Stdout, findings); err != nil {
			log.Fatal(err)
		}
	case formatSARIF:
		if err := analysis.WriteSARIF(os.Stdout, analyzers, findings); err != nil {
			log.Fatal(err)
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s\n", f.Pos, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// versionFlag implements the -V=full protocol `go vet` uses for build
// caching: print "<name> version devel buildID=<content hash>".
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel buildID=%x\n", filepath.Base(exe), h.Sum(nil))
	os.Exit(0)
	return nil
}
