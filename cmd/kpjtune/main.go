// Command kpjtune grid-searches the landmark count |L| and bounding
// factor α for a flat file's graph + destination category (the parameter
// selection the paper performs by hand in Fig. 6), then optionally saves
// the graph, its categories and the winning index as a flat file for
// kpjserver -flat and kpjquery -flat. Any index the input file carries is
// ignored; import DIMACS input with kpjindex first (-landmarks 0 is
// enough).
//
// Usage:
//
//	kpjtune -flat sj.kpjflat -category T2 [-out sj-tuned.kpjflat]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kpj"
)

func main() {
	flatPath := flag.String("flat", "", "flat graph+categories file from kpjindex (required)")
	category := flag.String("category", "", "destination category to tune for (required)")
	samples := flag.Int("samples", 16, "sampled queries per configuration")
	k := flag.Int("k", 20, "k used for the sampled queries")
	seed := flag.Int64("seed", 1, "sampling / selection seed")
	out := flag.String("out", "", "save graph, categories and the winning index as a flat file here (optional)")
	flag.Parse()

	if err := run(*flatPath, *category, *samples, *k, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "kpjtune: %v\n", err)
		os.Exit(1)
	}
}

func run(flatPath, category string, samples, k int, seed int64, out string) error {
	if flatPath == "" || category == "" {
		return fmt.Errorf("-flat and -category are required")
	}
	g, _, _, err := kpj.OpenFlat(flatPath, false)
	if err != nil {
		return err
	}

	start := time.Now()
	rep, err := g.Tune(category, &kpj.TuneOptions{SampleQueries: samples, K: k, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("tuned %q on %d nodes in %v (%d configurations, %d sampled queries each)\n",
		category, g.NumNodes(), time.Since(start).Round(time.Millisecond), len(rep.Trials), samples)
	fmt.Printf("%-10s  %-6s  %s\n", "landmarks", "alpha", "work (pops+relaxations)")
	for _, tr := range rep.Trials {
		marker := ""
		if tr.Landmarks == rep.Landmarks && tr.Alpha == rep.Alpha {
			marker = "  <= winner"
		}
		fmt.Printf("%-10d  %-6.2f  %d%s\n", tr.Landmarks, tr.Alpha, tr.Cost, marker)
	}
	fmt.Printf("\nrecommendation: landmarks=%d alpha=%.2f\n", rep.Landmarks, rep.Alpha)

	if out != "" && rep.Index != nil {
		if err := kpj.WriteFlatFile(out, g, rep.Index); err != nil {
			return err
		}
		fmt.Printf("saved graph and winning index as flat file %s\n", out)
	}
	return nil
}
