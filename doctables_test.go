package kpj_test

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocTablesNameLiveTests: every TestX cited in a README or DESIGN
// table row is declared ("func TestX(") in some _test.go file and every
// TestX* prefixes one, so a deleted test cannot leave a row citing
// nothing. TestLB is the paper's lower-bound procedure, not a test.
func TestDocTablesNameLiveTests(t *testing.T) {
	var tests strings.Builder
	err := filepath.Walk(".", func(path string, _ os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, "_test.go") {
			var src []byte
			src, err = os.ReadFile(path)
			tests.Write(src)
		}
		return err
	})
	row, cite := regexp.MustCompile(`(?m)^\s*\|.*$`), regexp.MustCompile(`\bTest[A-Z]\w*\*?`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, rerr := os.ReadFile(doc)
		if err = errors.Join(err, rerr); err != nil {
			t.Fatal(err)
		}
		for _, line := range row.FindAllString(string(src), -1) {
			for _, name := range cite.FindAllString(line, -1) {
				if decl := "\nfunc " + strings.Replace(name+"(", "*(", "", 1); name != "TestLB" && !strings.Contains(tests.String(), decl) {
					t.Errorf("%s: a table row names %s, which no _test.go file declares", doc, name)
				}
			}
		}
	}
}
