// Command kpjquery runs ad-hoc KPJ / KSP / GKPJ queries against a flat
// graph+categories+index file written by kpjindex. The landmark index is
// whatever the file carries (kpjindex -landmarks 0 writes none, and the
// query then runs the no-landmark variants).
//
// The query is the one the server's /query takes, less its target,
// budget and timeout: exactly one of -source and -source-category, a
// -category, -k, -alg (empty selects the default) and -alpha. Every rule
// on their values is the library's; a query it refuses exits 1 with its
// error.
//
// Usage:
//
//	kpjquery -flat sj.kpjflat -source 42 -category T2 -k 5
//	kpjquery -flat sj.kpjflat -source-category T1 -category T2 -k 5 -alg DA-SPT
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"kpj"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case errors.Is(err, errFlags):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "kpjquery: %v\n", err)
		os.Exit(1)
	}
}

// errFlags is run's answer to a command line the flag set refused and
// has already reported.
var errFlags = errors.New("kpjquery: bad flags")

// algoNames lists the algorithm names in kpj.Algorithms order.
func algoNames() string {
	var names []string
	for _, a := range kpj.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, ", ")
}

// run parses args, runs the query, and prints the paths to stdout and
// the trace, spans and metrics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kpjquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flatPath := fs.String("flat", "", "flat graph+categories+index file from kpjindex (required)")
	source := fs.Int("source", 0, "source node id (KPJ/KSP)")
	sourceCat := fs.String("source-category", "", "source category (GKPJ)")
	category := fs.String("category", "", "destination category (required)")
	k := fs.Int("k", 10, "number of paths")
	alg := fs.String("alg", kpj.IterBoundSPTI.String(), "algorithm: "+algoNames())
	alpha := fs.Float64("alpha", 1.1, "tau growth factor")
	trace := fs.Bool("trace", false, "print an EXPLAIN-style engine trace to stderr")
	spans := fs.Bool("spans", false, "print the query's phase timeline (EXPLAIN ANALYZE) as JSON to stderr")
	metrics := fs.Bool("metrics", false, "print engine metrics in Prometheus text format to stderr")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errFlags
	}
	sourceGiven := false
	fs.Visit(func(f *flag.Flag) { sourceGiven = sourceGiven || f.Name == "source" })

	if *flatPath == "" || *category == "" {
		return fmt.Errorf("-flat and -category are required")
	}
	if sourceGiven == (*sourceCat != "") {
		return fmt.Errorf("give exactly one of -source or -source-category")
	}
	if int(kpj.NodeID(*source)) != *source {
		return fmt.Errorf("bad -source %d", *source)
	}
	algo, err := kpj.ParseAlgorithm(*alg)
	if err != nil {
		return fmt.Errorf("%w (want one of %s)", err, algoNames())
	}

	start := time.Now()
	g, ix, _, err := kpj.OpenFlat(*flatPath, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %d nodes, %d edges, categories %v\n", g.NumNodes(), g.NumEdges(), g.Categories())
	if ix != nil {
		fmt.Fprintf(stdout, "index: %d landmarks, %d bytes, loaded with the graph in %v\n", ix.Count(), ix.SizeBytes(), time.Since(start).Round(time.Millisecond))
	}

	opt := &kpj.Options{Algorithm: algo, Alpha: *alpha, Index: ix, Stats: &kpj.Stats{}}
	if *trace {
		opt.Trace = stderr
	}
	if *spans {
		opt.Spans = kpj.NewSpans()
	}
	var reg *kpj.MetricsRegistry
	if *metrics {
		reg = kpj.NewMetricsRegistry()
		kpj.EnableMetrics(reg)
		defer kpj.EnableMetrics(nil)
	}
	var paths []kpj.Path
	start = time.Now()
	if sourceGiven {
		paths, err = g.TopKJoin(kpj.NodeID(*source), *category, *k, opt)
	} else {
		paths, err = g.TopKCategoryJoin(*sourceCat, *category, *k, opt)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	for i, p := range paths {
		fmt.Fprintf(stdout, "P%-3d length=%-10d nodes=%v\n", i+1, p.Length, p.Nodes)
	}
	fmt.Fprintf(stdout, "%d paths in %v (%s, alpha=%.2f)  stats: %+v\n",
		len(paths), elapsed.Round(time.Microsecond), algo, *alpha, *opt.Stats)
	if opt.Spans != nil {
		fmt.Fprintln(stderr, "phase timeline:")
		if err := opt.Spans.WriteJSON(stderr); err != nil {
			return err
		}
	}
	if reg != nil {
		fmt.Fprintln(stderr, "metrics:")
		if err := reg.WritePrometheus(stderr); err != nil {
			return err
		}
	}
	return nil
}
