// Command kpjquery runs ad-hoc KPJ / KSP / GKPJ queries against a flat
// graph+categories+index file written by kpjindex. The landmark index is
// whatever the file carries (kpjindex -landmarks 0 writes none, and the
// query then runs the no-landmark variants).
//
// Usage:
//
//	kpjquery -flat sj.kpjflat -source 42 -category T2 -k 5
//	kpjquery -flat sj.kpjflat -source-category T1 -category T2 -k 5 -alg DA-SPT
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kpj"
)

func main() {
	flatPath := flag.String("flat", "", "flat graph+categories+index file from kpjindex (required)")
	source := flag.Int("source", -1, "source node id (KPJ/KSP)")
	sourceCat := flag.String("source-category", "", "source category (GKPJ)")
	category := flag.String("category", "", "destination category (required)")
	k := flag.Int("k", 10, "number of paths")
	alg := flag.String("alg", kpj.IterBoundSPTI.String(), "algorithm: "+algoNames())
	alpha := flag.Float64("alpha", 1.1, "tau growth factor")
	trace := flag.Bool("trace", false, "print an EXPLAIN-style engine trace to stderr")
	spans := flag.Bool("spans", false, "print the query's phase timeline (EXPLAIN ANALYZE) as JSON to stderr")
	metrics := flag.Bool("metrics", false, "print engine metrics in Prometheus text format to stderr")
	flag.Parse()

	if err := run(*flatPath, *source, *sourceCat, *category, *k, *alg, *alpha, *trace, *spans, *metrics); err != nil {
		fmt.Fprintf(os.Stderr, "kpjquery: %v\n", err)
		os.Exit(1)
	}
}

// algoNames lists the algorithm names in kpj.Algorithms order.
func algoNames() string {
	var names []string
	for _, a := range kpj.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, ", ")
}

func run(flatPath string, source int, sourceCat, category string, k int, alg string, alpha float64, trace, spans, metrics bool) error {
	if flatPath == "" || category == "" {
		return fmt.Errorf("-flat and -category are required")
	}
	algo, err := kpj.ParseAlgorithm(alg)
	// The flag has a default, so an explicit -alg "" is refused rather
	// than read as ParseAlgorithm's default.
	if err != nil || alg == "" {
		return fmt.Errorf("unknown algorithm %q (want one of %s)", alg, algoNames())
	}

	start := time.Now()
	g, ix, _, err := kpj.OpenFlat(flatPath, false)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges, categories %v\n", g.NumNodes(), g.NumEdges(), g.Categories())
	if ix != nil {
		fmt.Printf("index: %d landmarks, %d bytes, loaded with the graph in %v\n", ix.Count(), ix.SizeBytes(), time.Since(start).Round(time.Millisecond))
	}

	opt := &kpj.Options{Algorithm: algo, Alpha: alpha, Index: ix, Stats: &kpj.Stats{}}
	if trace {
		opt.Trace = os.Stderr
	}
	if spans {
		opt.Spans = kpj.NewSpans()
	}
	var reg *kpj.MetricsRegistry
	if metrics {
		reg = kpj.NewMetricsRegistry()
		kpj.EnableMetrics(reg)
		defer kpj.EnableMetrics(nil)
	}
	var paths []kpj.Path
	start = time.Now()
	switch {
	case sourceCat != "":
		paths, err = g.TopKCategoryJoin(sourceCat, category, k, opt)
	case source >= 0:
		paths, err = g.TopKJoin(kpj.NodeID(source), category, k, opt)
	default:
		return fmt.Errorf("one of -source or -source-category is required")
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	for i, p := range paths {
		fmt.Printf("P%-3d length=%-10d nodes=%v\n", i+1, p.Length, p.Nodes)
	}
	fmt.Printf("%d paths in %v (%s, alpha=%.2f)  stats: %+v\n",
		len(paths), elapsed.Round(time.Microsecond), alg, alpha, *opt.Stats)
	if opt.Spans != nil {
		fmt.Fprintln(os.Stderr, "phase timeline:")
		if err := opt.Spans.WriteJSON(os.Stderr); err != nil {
			return err
		}
	}
	if reg != nil {
		fmt.Fprintln(os.Stderr, "metrics:")
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}
