package faultinject

import (
	"os"
	"regexp"
	"testing"
)

// TestFaultSitesMatchDocs: the fault-site table of docs/INTERNALS.md and
// Sites agree in both directions — every site has a row, and every row
// (but the `*` wildcard) names a site.
func TestFaultSitesMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/INTERNALS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	row := regexp.MustCompile("(?m)^\\| `([a-z]+\\.[a-z]+)` +\\|")
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	known := map[string]bool{}
	for _, s := range Sites() {
		known[s] = true
		if !documented[s] {
			t.Errorf("site %s has no row in docs/INTERNALS.md", s)
		}
	}
	for s := range documented {
		if !known[s] {
			t.Errorf("docs/INTERNALS.md lists %s, which is not a fault site", s)
		}
	}
}
