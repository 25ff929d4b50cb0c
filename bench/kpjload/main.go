// Command kpjload is the repository's benchmark: it starts a kpjrouter
// and one durable kpjserver replica inside its own process, wired as the
// two commands wire them, drives one workload through real loopback
// HTTP with a single closed-loop client, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics).
//
//	kpjload -workload query-far -seed 1
//	kpjload -workload update-reweight -seed 1 -trace 1
//	kpjload -noise > bench/NOISE.md
//
// See bench/README.md for the workloads, the metric definitions and why
// the harness has the shape it has.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "traffic seed: same seed, same operations")
	seconds := flag.Int("seconds", runSeconds, "BENCHMARK.json's run_seconds, as the driver passes it; the op lists are fixed, so no other value is accepted")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	noise := flag.Bool("noise", false, "run every workload ten times twice and print the NOISE.md report")
	dir := flag.String("dir", os.TempDir(), "scratch directory")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *noise, *dir); err != nil {
		fmt.Fprintf(os.Stderr, "kpjload: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(workload string, seed int64, seconds, trace int, noise bool, dir string) error {
	if seconds != runSeconds {
		return fmt.Errorf("-seconds %d: every phase is a fixed op list sized for %d s; only %d is accepted", seconds, runSeconds, runSeconds)
	}
	if noise {
		return noiseReport(os.Stdout, os.Stderr, dir)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	res, err := runWorkload(workload, seed, defaultConfig(), dir, trace == 1)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	if err := report(os.Stdout, res, defs); err != nil {
		return err
	}
	if !res.correct() {
		return fmt.Errorf("%d of %d operations failed, %d checks", res.failed, res.attempted, len(res.problems))
	}
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the run for a reader and, as the last line, the one JSON
// object the driver parses.
func report(w io.Writer, res *result, defs []metricDef) error {
	out := bufio.NewWriter(w)
	fmt.Fprintf(out, "workload %s seed %d\n", res.workload, res.seed)
	fmt.Fprintf(out, "machine: %s\n", machineRecord())
	js := resultJSON{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		js.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-36s %14.4f %-6s", d.name, v, d.unit)
		if n, ok := res.samples[d.name]; ok {
			line += fmt.Sprintf(" (%d samples)", n)
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	extras := make([]string, 0, len(res.extra))
	for k := range res.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(out, "%-36s %14.4f (not a contract metric)\n", k, res.extra[k])
	}
	if res.spans != "" {
		fmt.Fprintf(out, "spans written to %s\n", res.spans)
		if b := budgets(res); b != "" {
			fmt.Fprint(out, b)
		}
	}
	fmt.Fprintf(out, "operations attempted %d failed %d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
	}
	line, err := json.Marshal(js)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return out.Flush()
}

// budgets renders the README's "where the time goes" tables from a
// traced run.
func budgets(res *result) string {
	var b strings.Builder
	m := res.metrics
	if total := res.extra["routed_read_p50_ms"]; total > 0 {
		fmt.Fprintf(&b, "\nwhere a routed query's time goes (%s, p50 of per-operation self times, ms)\n", res.workload)
		b.WriteString("| layer | ms | share |\n|---|---|---|\n")
		b.WriteString(budget(m, total, "net.loopback_self_ms", "router.proxy_self_ms", "server.handler_self_ms", "core.query_ms"))
	}
	if total := res.extra["routed_update_mean_ms"]; total > 0 {
		fmt.Fprintf(&b, "\nwhere a durable update's time goes (%s, means, ms)\n", res.workload)
		b.WriteString("| layer | ms | share |\n|---|---|---|\n")
		m2 := map[string]float64{}
		for k, v := range m {
			m2[k] = v
		}
		m2["landmark.rekey_ms"] = m["landmark.rekey_us"] / 1e3
		m2["wal.checkpoint_ms / checkpoint-every"] = res.extra["checkpoint_share_ms"]
		b.WriteString(budget(m2, total, "net.update_loopback_self_ms", "router.update_self_ms", "server.update_self_ms",
			"graph.apply_ms", "landmark.repair_ms", "landmark.rekey_ms", "wal.append_ms", "wal.checkpoint_ms / checkpoint-every"))
	}
	return b.String()
}

// budget renders "where the time goes" rows for the README: each layer's
// self time and its share of the routed operation.
func budget(m map[string]float64, total float64, rows ...string) string {
	var b strings.Builder
	var sum float64
	for _, name := range rows {
		sum += m[name]
	}
	for _, name := range rows {
		fmt.Fprintf(&b, "| `%s` | %.3f | %.0f %% |\n", name, m[name], 100*m[name]/total)
	}
	fmt.Fprintf(&b, "| sum of layers | %.3f | %.0f %% |\n| routed | %.3f | |\n", sum, 100*sum/total, total)
	return b.String()
}

// machineRecord names what the numbers were measured on.
func machineRecord() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
