package kpj_test

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocTablesNameLiveTests: every TestX cited in a README, DESIGN or
// PAPER table row is declared ("func TestX(") in some _test.go file and
// every TestX* prefixes one, so a deleted test cannot leave a row citing
// nothing. Likewise every backticked `internal/…` or `cmd/…` path in such
// a row exists, so a deleted package or binary cannot either. TestLB is
// the paper's lower-bound procedure, not a test.
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
	path := regexp.MustCompile("`((?:internal|cmd)/[\\w./-]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "PAPER.md"} {
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
			for _, m := range path.FindAllStringSubmatch(line, -1) {
				if _, serr := os.Stat(m[1]); serr != nil {
					t.Errorf("%s: a table row cites %s, which does not exist", doc, m[1])
				}
			}
		}
	}
}
