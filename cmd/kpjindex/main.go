// Command kpjindex is the DIMACS importer: it reads a ".gr" graph (plus an
// optional POI category file), builds the landmark index offline, and
// writes graph, categories and index as one flat file — the only
// persisted form, which kpjserver -flat and kpjquery -flat load without
// re-parsing or rebuilding anything.
//
// Usage:
//
//	kpjindex -graph sj.gr -pois sj.pois -landmarks 16 -out sj.kpjflat
//
// -landmarks 0 writes the graph alone. The output is renamed into place,
// never written in place, so a kpjserver reloading on SIGHUP never reads
// a half-written file.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kpj"
)

func main() {
	graphPath := flag.String("graph", "", "DIMACS .gr file (required)")
	poisPath := flag.String("pois", "", "POI category file to embed")
	landmarks := flag.Int("landmarks", 16, "landmark count (0 writes the graph without an index)")
	seed := flag.Int64("seed", 1, "selection seed")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for the construction Dijkstras (<= 0 all cores)")
	out := flag.String("out", "kpj.kpjflat", "output file")
	flag.Parse()

	if err := run(*graphPath, *poisPath, *landmarks, *seed, *parallelism, *out); err != nil {
		fmt.Fprintf(os.Stderr, "kpjindex: %v\n", err)
		os.Exit(1)
	}
}

func run(graphPath, poisPath string, landmarks int, seed int64, parallelism int, out string) error {
	if graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	gf, err := os.Open(graphPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	g, err := kpj.ReadGraph(gf)
	if err != nil {
		return err
	}
	if poisPath != "" {
		pf, err := os.Open(poisPath)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := g.ReadCategories(pf); err != nil {
			return err
		}
	}

	var ix *kpj.Index
	var built time.Duration
	if landmarks > 0 {
		start := time.Now()
		if ix, err = kpj.BuildIndexParallel(g, landmarks, seed, parallelism); err != nil {
			return err
		}
		built = time.Since(start)
	}

	if err := kpj.WriteFlatFile(out, g, ix); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	count := 0
	if ix != nil {
		count = ix.Count()
	}
	fmt.Printf("built %d-landmark index for %d nodes in %v; wrote %d-byte flat file to %s (serve with kpjserver -flat %s)\n",
		count, g.NumNodes(), built.Round(time.Millisecond), st.Size(), out, out)
	return nil
}
