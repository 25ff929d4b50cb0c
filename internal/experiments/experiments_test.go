package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// testEnv returns an Env tiny enough for the whole suite to run in seconds.
func testEnv() *Env {
	return NewEnv(Config{Scale: 0.05, PerSet: 2, Landmarks: 4, Alpha: 1.1, Seed: 1})
}

func TestOrderCoversRegistry(t *testing.T) {
	reg := Registry()
	order := Order()
	if len(order) != len(reg) {
		t.Fatalf("Order has %d entries, Registry %d", len(order), len(reg))
	}
	for _, id := range order {
		if _, ok := reg[id]; !ok {
			t.Fatalf("Order lists unknown experiment %q", id)
		}
	}
}

func TestAllExperimentsRunSmall(t *testing.T) {
	e := testEnv()
	reg := Registry()
	for _, id := range Order() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := reg[id](e)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", id)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("%s: table %q has no rows", id, tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("%s: table %q row %v does not match columns %v",
							id, tab.Title, row, tab.Columns)
					}
				}
				var buf bytes.Buffer
				tab.Print(&buf)
				if !strings.Contains(buf.String(), tab.Title) {
					t.Fatalf("%s: Print lost the title", id)
				}
			}
		})
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := Table{
		Title:   "demo, with comma",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", "z"}},
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# demo, with comma\na,b\n1,\"x,y\"\n2,z\n"
	if got != want {
		t.Fatalf("WriteCSV = %q, want %q", got, want)
	}
}

func TestEnvCaching(t *testing.T) {
	e := testEnv()
	a, err := e.Graph("SJ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Graph("SJ")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Graph not cached")
	}
	i1, err := e.IndexWith("SJ", 4)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := e.IndexWith("SJ", 4)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Fatal("Index not cached")
	}
	i3, err := e.IndexWith("SJ", 2)
	if err != nil {
		t.Fatal(err)
	}
	if i3 == i1 {
		t.Fatal("different |L| must build a different index")
	}
	if _, err := e.Graph("NOPE"); err == nil {
		t.Fatal("want error for unknown dataset")
	}
	if _, _, err := e.QuerySets("SJ", "missing"); err == nil {
		t.Fatal("want error for unknown category")
	}
}

func TestRunQueriesProducesPaths(t *testing.T) {
	e := testEnv()
	g, err := e.Graph("SJ")
	if err != nil {
		t.Fatal(err)
	}
	targets, err := g.Category("T2")
	if err != nil {
		t.Fatal(err)
	}
	qs, _, err := e.QuerySets("SJ", "T2")
	if err != nil {
		t.Fatal(err)
	}
	// Q1 sources may coincide with the target itself, in which case fewer
	// than k simple paths exist — so assert agreement, not exact counts.
	want := -1
	for _, algo := range algorithmOrder {
		m, err := e.runQueries("SJ", algo, qs[0], targets, 5, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if m.Paths == 0 || m.Paths > 5*len(qs[0]) {
			t.Fatalf("%s returned %d paths (k=5, %d queries)", algo, m.Paths, len(qs[0]))
		}
		if want == -1 {
			want = m.Paths
		} else if m.Paths != want {
			t.Fatalf("%s returned %d paths, others %d", algo, m.Paths, want)
		}
	}
	if _, err := e.runQueries("SJ", "bogus", qs[0], targets, 5, 0, 0); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}
