package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileAndMedians(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
	// One slow pass out of three is discarded op by op.
	got := medianOfPasses([][]float64{{1, 20, 3}, {10, 2, 30}, {1.5, 2.5, 3.5}})
	if want := []float64{1.5, 2.5, 3.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("medianOfPasses = %v, want %v", got, want)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestPlansAreSeedDeterministic(t *testing.T) {
	cfg := smokeConfig()
	ds, err := newDataset(cfg.side)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, err := newPlan(w.name, 1, cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w.name, 1, cfg, ds)
		c, _ := newPlan(w.name, 2, cfg, ds)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: same seed gave different op lists", w.name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 1 and 2 gave the same op list", w.name)
		}
		if len(a.ops) == 0 || len(a.warmup) == 0 || len(a.probes) == 0 {
			t.Errorf("%s: empty plan part", w.name)
		}
	}
}

// Every config must leave the log replayBehind records past a checkpoint
// when its update phase ends, and the traced update-reweight run must
// reach tapped segments (the third and later) on both sides of one.
func TestConfigsEndPastACheckpoint(t *testing.T) {
	for name, cfg := range map[string]config{"default": defaultConfig(),
		"traced": tracedConfig(defaultConfig()), "smoke": smokeConfig(), "smoke traced": tracedConfig(smokeConfig())} {
		if got := uint64(cfg.updates) % checkpointEvery; got != replayBehind["update-reweight"] {
			t.Errorf("%s: %d updates end %d past a checkpoint, want %d", name, cfg.updates, got, replayBehind["update-reweight"])
		}
		if got := uint64(cfg.steps) % checkpointEvery; got != replayBehind["live-churn"] {
			t.Errorf("%s: %d steps end %d past a checkpoint, want %d", name, cfg.steps, got, replayBehind["live-churn"])
		}
		if cfg.updates < checkpointEvery+segmentSize || cfg.updates%segmentSize != 0 {
			t.Errorf("%s: %d updates: want whole segments and a tapped segment after the first checkpoint", name, cfg.updates)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %+v", i, bf.Workloads[i], w)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness runSeconds %d", bf.RunSeconds, runSeconds)
	}
}

// countMetrics are the per-layer metrics that must repeat exactly for a
// fixed seed: they count work, they do not time it.
var countMetrics = []string{
	"core.pops_per_query", "core.relax_per_query", "core.searches_per_query",
	"core.tau_rounds_per_query", "core.spt_nodes_per_query",
	"landmark.tables_repaired", "landmark.full_rebuild_ratio",
	"flatindex.bytes", "wal.append_bytes", "wal.checkpoint_bytes", "wal.bytes_per_update",
	"server.replay_records",
}

// exercised are the per-layer metrics a workload's traced run must have
// produced from at least one tapped operation, so that the equalities
// above do not compare 0 with 0.
var exercised = map[string][]string{
	"query-far":  {"core.pops_per_query", "core.query_ms", "server.response_bytes", "router.proxy_self_ms", "server.restart_ms"},
	"query-near": {"core.pops_per_query", "core.query_ms", "server.response_bytes", "router.proxy_self_ms", "server.restart_ms"},
	"update-reweight": {"landmark.tables_repaired", "graph.apply_ms", "wal.append_bytes", "wal.checkpoint_bytes",
		"wal.checkpoint_ms", "wal.bytes_per_update", "server.replay_records", "router.update_self_ms"},
	"live-churn": {"core.pops_per_query", "landmark.tables_repaired", "landmark.full_rebuild_ratio", "wal.append_bytes",
		"wal.checkpoint_bytes", "wal.bytes_per_update", "server.replay_records", "server.first_query_after_update_ms"},
}

func TestSmokeAllWorkloads(t *testing.T) {
	cfg := smokeConfig()
	for _, w := range workloads {
		res, err := runWorkload(w.name, 1, cfg, t.TempDir(), false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() || res.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", w.name, res.failed, res.attempted, res.problems)
		}
		for _, d := range endToEnd {
			if v, ok := res.metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, d.name, v)
			}
		}
		if len(res.metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, want the %d end-to-end ones", w.name, len(res.metrics), len(endToEnd))
		}

		var traced [2]*result
		for i := range traced {
			if traced[i], err = runWorkload(w.name, 1, cfg, t.TempDir(), true); err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
			if !traced[i].correct() {
				t.Errorf("%s traced: %v", w.name, traced[i].problems)
			}
			if len(traced[i].metrics) != len(perLayer) {
				t.Errorf("%s traced: %d metrics reported, want the %d per-layer ones", w.name, len(traced[i].metrics), len(perLayer))
			}
			if _, err := os.Stat(traced[i].spans); err != nil {
				t.Errorf("%s traced: span file: %v", w.name, err)
			}
		}
		for _, name := range countMetrics {
			if a, b := traced[0].metrics[name], traced[1].metrics[name]; a != b {
				t.Errorf("%s: count metric %s differs between two runs of one seed: %v vs %v", w.name, name, a, b)
			}
		}
		for _, name := range exercised[w.name] {
			if traced[0].metrics[name] <= 0 {
				t.Errorf("%s: %s = %v, want the traced run to have exercised it", w.name, name, traced[0].metrics[name])
			}
		}
	}
}
