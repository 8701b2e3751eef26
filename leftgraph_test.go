package lincount

import (
	"testing"

	"lincount/internal/adorn"
	"lincount/internal/counting"
	"lincount/internal/parser"
)

// TestProbeLeftGraph: the counting runtime enters a back arc of the left
// graph exactly when a cycle is reachable from the binding.
func TestProbeLeftGraph(t *testing.T) {
	p := MustParseProgram(sgSrc)
	q, err := parser.ParseQuery(p.bank, "?- sg(a,Y).")
	if err != nil {
		t.Fatal(err)
	}
	a, err := adorn.Adorn(p.program, q)
	if err != nil {
		t.Fatal(err)
	}
	an, err := counting.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		facts   string
		acyclic bool
	}{
		{"up(a,b). up(b,c).", true},
		{"up(a,b). up(b,a).", false},
		// A cycle not reachable from the binding must not count.
		{"up(a,b). up(z,w). up(w,z).", true},
	} {
		db := NewDatabase(p)
		if err := db.LoadFacts(c.facts); err != nil {
			t.Fatal(err)
		}
		rt, err := counting.NewRuntime(an, db.db, counting.RuntimeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if acyclic := res.Stats.BackEntries == 0; acyclic != c.acyclic {
			t.Errorf("%s: acyclic = %v, want %v", c.facts, acyclic, c.acyclic)
		}
	}
}
