// Command kpjbench regenerates the paper's evaluation tables and figures
// (Table 1, Figs. 6-13) on synthetic stand-in road networks.
//
// Usage:
//
//	kpjbench [-exp all|table1|fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|fig12|fig13]
//	         [-scale 0.25] [-perset 5] [-landmarks 16] [-alpha 1.1] [-seed 1]
//
// -scale is the linear dataset scale: 1.0 reproduces the paper's Table 1
// node counts (USA ≈ 6.3M nodes), 0.25 shrinks every dataset to 1/16 of
// its node count. Experiment shapes are scale-invariant; absolute
// milliseconds are not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kpj"
	"kpj/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or comma list ("+strings.Join(experiments.Order(), ", ")+")")
	scale := flag.Float64("scale", 0, "linear dataset scale in (0,1] (default 0.25)")
	perSet := flag.Int("perset", 0, "queries per query set (default 5; paper uses 100)")
	landmarks := flag.Int("landmarks", 0, "landmark count |L| (default 16)")
	alpha := flag.Float64("alpha", 0, "tau growth factor (default 1.1)")
	seed := flag.Int64("seed", 0, "RNG seed (default 1)")
	format := flag.String("format", "text", "output format: text, csv, or json")
	metrics := flag.Bool("metrics", false, "print cumulative engine metrics in Prometheus text format to stderr after the run")
	flag.Parse()
	if *format != "text" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "kpjbench: unknown format %q\n", *format)
		os.Exit(2)
	}
	// Every id is checked before any experiment runs: a typo in the list
	// must not surface only after the experiments ahead of it.
	ids := experiments.Order()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	reg := experiments.Registry()
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		if _, ok := reg[ids[i]]; !ok {
			fmt.Fprintf(os.Stderr, "kpjbench: unknown experiment %q (known: %s)\n",
				ids[i], strings.Join(experiments.Order(), ", "))
			os.Exit(2)
		}
	}

	// Metrics go to stderr so the stdout tables are byte-identical with
	// or without them.
	var metricsReg *kpj.MetricsRegistry
	if *metrics {
		metricsReg = kpj.NewMetricsRegistry()
		kpj.EnableMetrics(metricsReg)
	}

	env := experiments.NewEnv(experiments.Config{
		Scale:     *scale,
		PerSet:    *perSet,
		Landmarks: *landmarks,
		Alpha:     *alpha,
		Seed:      *seed,
	})
	if *format == "text" {
		fmt.Printf("kpjbench: scale=%.2f perset=%d landmarks=%d alpha=%.2f seed=%d\n\n",
			env.Cfg.Scale, env.Cfg.PerSet, env.Cfg.Landmarks, env.Cfg.Alpha, env.Cfg.Seed)
	}

	// jsonDoc accumulates the -format json output: the effective config
	// plus every table, keyed by experiment id.
	jsonDoc := struct {
		Config experiments.Config             `json:"config"`
		Tables map[string][]experiments.Table `json:"tables"`
	}{Config: env.Cfg, Tables: map[string][]experiments.Table{}}
	for _, id := range ids {
		start := time.Now()
		tables, err := reg[id](env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kpjbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for i := range tables {
			switch *format {
			case "csv":
				if err := tables[i].WriteCSV(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "kpjbench: %v\n", err)
					os.Exit(1)
				}
				fmt.Println()
			case "json":
				jsonDoc.Tables[id] = tables
			default:
				tables[i].Print(os.Stdout)
			}
		}
		if *format == "text" {
			fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc); err != nil {
			fmt.Fprintf(os.Stderr, "kpjbench: %v\n", err)
			os.Exit(1)
		}
	}
	if metricsReg != nil {
		fmt.Fprintln(os.Stderr, "engine metrics:")
		if err := metricsReg.WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "kpjbench: %v\n", err)
			os.Exit(1)
		}
	}
}
