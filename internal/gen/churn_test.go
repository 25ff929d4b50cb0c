package gen

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kpj/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite churn golden files")

func churnTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := Road(RoadConfig{Width: 8, Height: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddNestedCategories(g, 8); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChurnDeterministicAndValid(t *testing.T) {
	g := churnTestGraph(t)
	cfg := ChurnConfig{Steps: 12, Ops: 6, Seed: 10}
	d1, final1, err := Churn(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, final2, err := Churn(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed produced different schedules")
	}
	if len(d1) != cfg.Steps {
		t.Fatalf("got %d deltas, want %d", len(d1), cfg.Steps)
	}
	// Replaying the schedule reproduces the reported final graph.
	cur := g
	total := 0
	for i, d := range d1 {
		next, _, err := graph.Apply(cur, d)
		if err != nil {
			t.Fatalf("delta %d does not apply: %v", i, err)
		}
		total += d.Ops()
		cur = next
	}
	if cur.NumEdges() != final1.NumEdges() || cur.NumEdges() != final2.NumEdges() {
		t.Fatalf("replay edges %d, Churn reported %d", cur.NumEdges(), final1.NumEdges())
	}
	if total == 0 {
		t.Fatal("schedule contains no operations")
	}
	// A different seed must not reproduce the schedule.
	d3, _, err := Churn(g, ChurnConfig{Steps: 12, Ops: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(d1, d3) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestChurnRoundTrip(t *testing.T) {
	g := churnTestGraph(t)
	deltas, _, err := Churn(g, ChurnConfig{Steps: 6, Ops: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChurn(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	back, err := readChurn(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deltas, back) {
		t.Fatal("schedule did not survive the JSONL round trip")
	}
}

// TestChurnGolden pins the exact schedule bytes for one (graph, seed):
// any change to the generator, the delta JSON encoding, or the underlying
// road-network generator shows up as a diff here. Regenerate deliberately
// with: go test ./internal/gen -run TestChurnGolden -update-golden
func TestChurnGolden(t *testing.T) {
	g := churnTestGraph(t)
	deltas, _, err := Churn(g, ChurnConfig{Steps: 8, Ops: 6, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChurn(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "churn_w8h8_seed10.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("churn schedule drifted from golden file %s\ngot:\n%swant:\n%s", golden, buf.Bytes(), want)
	}
}

// readChurn parses a JSON Lines schedule written by WriteChurn, one
// delta per line, as a replay against a live server reads it.
func readChurn(r io.Reader) ([]*graph.Delta, error) {
	var deltas []*graph.Delta
	dec := json.NewDecoder(r)
	for {
		var d graph.Delta
		if err := dec.Decode(&d); err != nil {
			if errors.Is(err, io.EOF) {
				return deltas, nil
			}
			return nil, fmt.Errorf("gen: churn line %d: %w", len(deltas)+1, err)
		}
		deltas = append(deltas, &d)
	}
}
