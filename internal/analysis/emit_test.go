package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func sampleFindings() []Finding {
	// Deliberately unsorted: the emitters must impose the global order.
	return []Finding{
		{Analyzer: "errwrap", File: "internal/core/b.go", Line: 10, Column: 3, Message: "comparison against error sentinel"},
		{Analyzer: "mapiter", File: "internal/core/a.go", Line: 20, Column: 5, Message: "map iteration"},
		{Analyzer: "boundcheck", File: "internal/core/a.go", Line: 20, Column: 2, Message: "loop without Bound"},
		{Analyzer: "directive", File: "internal/core/a.go", Line: 4, Column: 1, Message: "unknown directive"},
	}
}

func TestSortFindingsGlobalOrder(t *testing.T) {
	fs := sampleFindings()
	SortFindings(fs)
	var got []string
	for _, f := range fs {
		got = append(got, fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Column))
	}
	want := []string{
		"internal/core/a.go:4:1",
		"internal/core/a.go:20:2",
		"internal/core/a.go:20:5",
		"internal/core/b.go:10:3",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteJSON(&a, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two JSON emissions of the same findings differ")
	}
	var decoded []map[string]any
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(decoded) != 4 {
		t.Fatalf("got %d findings, want 4", len(decoded))
	}
	for _, d := range decoded {
		for _, key := range []string{"analyzer", "file", "line", "column", "message"} {
			if _, ok := d[key]; !ok {
				t.Errorf("finding missing %q: %v", key, d)
			}
		}
	}

	var empty bytes.Buffer
	if err := WriteJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(empty.String()) != "[]" {
		t.Errorf("no findings should emit an empty array, got %q", empty.String())
	}
}

// TestWriteSARIFValidates checks the emitted log against the SARIF
// 2.1.0 schema's structural requirements (required properties, value
// constraints) — the subset a full JSON-Schema validator would enforce
// for the elements we emit, hand-checked here because the toolchain is
// dependency-free.
func TestWriteSARIFValidates(t *testing.T) {
	analyzers := []*Analyzer{
		{Name: "errwrap", Doc: "reports dropped error chains\nlong text"},
		{Name: "mapiter", Doc: "reports map iteration"},
		{Name: "boundcheck", Doc: "reports unbounded loops"},
		{Name: "directive", Doc: "validates directives"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, analyzers, sampleFindings()); err != nil {
		t.Fatal(err)
	}

	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}

	// sarifLog: version is required and must be the literal "2.1.0";
	// runs is a required array.
	if v := log["version"]; v != "2.1.0" {
		t.Errorf(`version = %v, want "2.1.0"`, v)
	}
	if s, _ := log["$schema"].(string); !strings.Contains(s, "sarif-schema-2.1.0") {
		t.Errorf("$schema does not name the 2.1.0 schema: %v", log["$schema"])
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs must be a one-element array, got %v", log["runs"])
	}
	run := runs[0].(map[string]any)

	// run.tool.driver.name is the only required tool property.
	tool, ok := run["tool"].(map[string]any)
	if !ok {
		t.Fatal("run.tool missing")
	}
	driver, ok := tool["driver"].(map[string]any)
	if !ok {
		t.Fatal("run.tool.driver missing")
	}
	if name, _ := driver["name"].(string); name == "" {
		t.Error("driver.name missing or empty")
	}

	// Every result needs message.text; ruleId must refer to a declared
	// rule; locations follow physicalLocation → artifactLocation.uri and
	// region.startLine >= 1.
	ruleIDs := map[string]bool{}
	rules, _ := driver["rules"].([]any)
	for _, r := range rules {
		rule := r.(map[string]any)
		id, _ := rule["id"].(string)
		if id == "" {
			t.Error("rule without id")
		}
		ruleIDs[id] = true
		sd, ok := rule["shortDescription"].(map[string]any)
		if !ok {
			t.Errorf("rule %s: shortDescription missing", id)
		} else if txt, _ := sd["text"].(string); txt == "" || strings.Contains(txt, "\n") {
			t.Errorf("rule %s: shortDescription.text must be one nonempty line, got %q", id, txt)
		}
	}
	results, ok := run["results"].([]any)
	if !ok {
		t.Fatal("run.results missing")
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, r := range results {
		res := res2map(t, r)
		msg, ok := res["message"].(map[string]any)
		if !ok {
			t.Fatalf("result %d: message missing", i)
		}
		if txt, _ := msg["text"].(string); txt == "" {
			t.Errorf("result %d: message.text empty", i)
		}
		rid, _ := res["ruleId"].(string)
		if !ruleIDs[rid] {
			t.Errorf("result %d: ruleId %q not among driver rules", i, rid)
		}
		if lvl, _ := res["level"].(string); lvl != "error" && lvl != "warning" && lvl != "note" && lvl != "none" {
			t.Errorf("result %d: level %q outside the SARIF enum", i, lvl)
		}
		locs, ok := res["locations"].([]any)
		if !ok || len(locs) == 0 {
			t.Fatalf("result %d: locations missing", i)
		}
		phys, ok := res2map(t, locs[0])["physicalLocation"].(map[string]any)
		if !ok {
			t.Fatalf("result %d: physicalLocation missing", i)
		}
		art, ok := phys["artifactLocation"].(map[string]any)
		if !ok {
			t.Fatalf("result %d: artifactLocation missing", i)
		}
		uri, _ := art["uri"].(string)
		if uri == "" || strings.Contains(uri, "\\") {
			t.Errorf("result %d: artifactLocation.uri must be a forward-slash path, got %q", i, uri)
		}
		region, ok := phys["region"].(map[string]any)
		if !ok {
			t.Fatalf("result %d: region missing", i)
		}
		if line, _ := region["startLine"].(float64); line < 1 {
			t.Errorf("result %d: startLine %v < 1", i, region["startLine"])
		}
	}

	// Determinism: same findings, byte-identical log.
	var again bytes.Buffer
	if err := WriteSARIF(&again, analyzers, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Error("two SARIF emissions of the same findings differ")
	}
}

func res2map(t *testing.T, v any) map[string]any {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("expected JSON object, got %T", v)
	}
	return m
}
