package obsv

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestMetricsTablesMatchRegistry: the metrics tables of docs/INTERNALS.md
// and the registry agree in both directions — every series a table lists
// is registered with the type the table gives, and every registered
// series has a row.
func TestMetricsTablesMatchRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../docs/INTERNALS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{}
	row := regexp.MustCompile("(?m)^\\| `(lincount_[a-z_]+)[^`]*` \\| (\\w+) \\|")
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = m[2]
	}
	var buf bytes.Buffer
	Default.WritePrometheus(&buf)
	registered := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`).FindAllStringSubmatch(buf.String(), -1) {
		registered[m[1]] = m[2]
	}
	if len(registered) == 0 {
		t.Fatal("the registry exposes no series")
	}
	for name, kind := range registered {
		if doc, ok := documented[name]; !ok {
			t.Errorf("%s (%s) is registered but has no row in docs/INTERNALS.md", name, kind)
		} else if doc != kind {
			t.Errorf("%s is a %s, the table says %s", name, kind, doc)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("docs/INTERNALS.md lists %s, which is not registered", name)
		}
	}
}
