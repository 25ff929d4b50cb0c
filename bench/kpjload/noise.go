package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// noiseRuns is the acceptance procedure's sample: ten runs per workload,
// each with another seed.
const noiseRuns = 10

// noiseReport runs two sets (A, B) of noiseRuns runs of every workload,
// interleaved A,B,A,B so that a slow stretch of the machine lands on
// both, each run in a fresh process as the driver starts it. For every
// end-to-end metric it prints the two medians, each set's quartile
// spread as a share of its median, and the gap between the medians —
// the numbers the benchmark's bounds have to hold against.
func noiseReport(out, progress io.Writer, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] = ten values
	values := map[string]map[string]*[2][]float64{}
	for _, w := range workloads {
		values[w.name] = map[string]*[2][]float64{}
		for i := 0; i < noiseRuns; i++ {
			for set := 0; set < 2; set++ {
				fmt.Fprintf(progress, "noise: %s seed %d set %c\n", w.name, i+1, 'A'+set)
				js, err := runOnce(self, w.name, int64(i+1), dir)
				if err != nil {
					return err
				}
				for name, m := range js.Metrics {
					if values[w.name][name] == nil {
						values[w.name][name] = &[2][]float64{}
					}
					values[w.name][name][set] = append(values[w.name][name][set], m.Value)
				}
			}
		}
	}
	fmt.Fprintf(out, "# Noise of the benchmark against itself\n\n")
	fmt.Fprintf(out, "Two sets of %d runs per workload (seeds 1..%d), interleaved A,B,A,B, every run a fresh process.\n", noiseRuns, noiseRuns)
	fmt.Fprintf(out, "Spread is (q3 − q1) / median with Python's `statistics.quantiles(v, n=4)`; gap is how much worse B's median is than A's (negative: better).\n\n")
	fmt.Fprintf(out, "Machine: %s\n\n", machineRecord())
	fmt.Fprintf(out, "| workload | metric | bound | median A | median B | spread A | spread B | gap B vs A |\n|---|---|---|---|---|---|---|---|\n")
	worst := 0.0
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.name][d.name]
			q1a, q2a, q3a := quartiles(v[0])
			q1b, q2b, q3b := quartiles(v[1])
			gap := (q2b - q2a) / q2a
			if d.better == "higher" {
				gap = -gap
			}
			sa, sb := (q3a-q1a)/q2a, (q3b-q1b)/q2b
			fmt.Fprintf(out, "| %s | %s | %.2f | %.4g | %.4g | %.3f | %.3f | %+.3f |\n",
				w.name, d.name, d.bound, q2a, q2b, sa, sb, gap)
			worst = max(worst, gap/d.bound)
			if d.name != "setup_s" {
				worst = max(worst, sa/d.bound, sb/d.bound)
			}
		}
	}
	fmt.Fprintf(out, "\nLargest spread or gap as a share of its bound: %.2f (setup_s is held to its gap only).\n", worst)
	return nil
}

func runOnce(self, workload string, seed int64, dir string) (*resultJSON, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-dir", dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stdout)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var js resultJSON
	if err := json.Unmarshal(lines[len(lines)-1], &js); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result: %w", workload, seed, err)
	}
	if !js.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect", workload, seed)
	}
	return &js, nil
}
