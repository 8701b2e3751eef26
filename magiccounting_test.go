package lincount

import (
	"context"
	"strings"
	"testing"

	"lincount/internal/adorn"
	"lincount/internal/counting"
	"lincount/internal/parser"
)

// The magic-counting hybrid (reference [16]) is data-dependent: it must
// pick the reduced counting program on acyclic data and magic sets on
// cyclic data, returning the same answers either way.

func TestMagicCountingPicksCountingOnAcyclicData(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts(sgFacts); err != nil {
		t.Fatal(err)
	}
	res := mustEval(t, p, db, "?- sg(a,Y).", MagicCounting)
	if res.Strategy != MagicCounting {
		t.Errorf("strategy = %v", res.Strategy)
	}
	if !strings.Contains(res.Rewritten, "c_sg_bf") {
		t.Errorf("expected counting rewrite on acyclic data:\n%s", res.Rewritten)
	}
	want := rows(mustEval(t, p, db, "?- sg(a,Y).", SemiNaive))
	if rows(res) != want {
		t.Errorf("answers = %q, want %q", rows(res), want)
	}
}

func TestMagicCountingFallsBackOnCyclicData(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts(`
up(a,b). up(b,c). up(c,a).
flat(b,f). down(f,g). down(g,h). down(h,i).
`); err != nil {
		t.Fatal(err)
	}
	res := mustEval(t, p, db, "?- sg(a,Y).", MagicCounting)
	if !strings.Contains(res.Rewritten, "m_sg_bf") {
		t.Errorf("expected magic rewrite on cyclic data:\n%s", res.Rewritten)
	}
	want := rows(mustEval(t, p, db, "?- sg(a,Y).", SemiNaive))
	if rows(res) != want {
		t.Errorf("answers = %q, want %q", rows(res), want)
	}
}

func TestMagicCountingNonLinearFallsBackToMagic(t *testing.T) {
	p := MustParseProgram(`
tc(X,Y) :- e(X,Y).
tc(X,Y) :- tc(X,Z), tc(Z,Y).
`)
	db := NewDatabase(p)
	if err := db.LoadFacts("e(a,b). e(b,c)."); err != nil {
		t.Fatal(err)
	}
	res := mustEval(t, p, db, "?- tc(a,Y).", MagicCounting)
	if rows(res) != "a,b | a,c" {
		t.Errorf("answers = %q", rows(res))
	}
}

func TestMagicCountingRewriteIsDataDependent(t *testing.T) {
	p := MustParseProgram(sgSrc)
	if _, _, err := Rewrite(p, "?- sg(a,Y).", MagicCounting); err == nil {
		t.Error("Rewrite(MagicCounting) should explain it is data-dependent")
	}
}

func TestProbeLeftGraph(t *testing.T) {
	p := MustParseProgram(sgSrc)
	parse := func(facts string) (*counting.Analysis, *Database) {
		db := NewDatabase(p)
		if err := db.LoadFacts(facts); err != nil {
			t.Fatal(err)
		}
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
		return an, db
	}

	for _, c := range []struct {
		facts   string
		acyclic bool
	}{
		{"up(a,b). up(b,c).", true},
		{"up(a,b). up(b,a).", false},
		// A cycle not reachable from the binding must not trip the probe.
		{"up(a,b). up(z,w). up(w,z).", true},
	} {
		an, db := parse(c.facts)
		acyclic, err := counting.ProbeAcyclic(context.Background(), an, db.db, counting.RuntimeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if acyclic != c.acyclic {
			t.Errorf("%s: acyclic = %v, want %v", c.facts, acyclic, c.acyclic)
		}
	}
}
