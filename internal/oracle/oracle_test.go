package oracle

import (
	"context"
	"strings"
	"testing"

	"lincount"
)

const ancestry = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
`

func testDB(t *testing.T, p *lincount.Program) *lincount.Database {
	t.Helper()
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(`par(a,b). par(b,c). par(c,d).`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCheckAllStrategiesAgree(t *testing.T) {
	p := lincount.MustParseProgram(ancestry)
	db := testDB(t, p)
	rep, err := Check(context.Background(), p, db, "?- anc(a, Y).", lincount.Strategies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("expected all strategies to agree:\n%s", rep)
	}
	if len(rep.Baseline) != 3 {
		t.Fatalf("baseline = %v, want 3 answers", rep.Baseline)
	}
	okRuns := 0
	for _, run := range rep.Runs {
		switch run.Class {
		case OK:
			okRuns++
		case NotApplicable:
		default:
			t.Errorf("%s: unexpected class %s: %s", run.Strategy, run.Class, run.Err)
		}
	}
	if okRuns < 5 {
		t.Fatalf("only %d strategies succeeded", okRuns)
	}
}

// TestCheckAutoFollowsData: Auto under the oracle on the same program
// over acyclic and then cyclic data — the answers match the baseline
// both times, and the report says which strategy Auto ran: the counting
// runtime, whose answer classes follow the data.
func TestCheckAutoFollowsData(t *testing.T) {
	p := lincount.MustParseProgram("sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n")
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts("up(a,b). up(b,c). flat(c,f). down(f,g). down(g,h)."); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		add  string
		want lincount.Strategy
	}{{"", lincount.CountingRuntime}, {"up(c,a).", lincount.CountingRuntime}} {
		if err := db.LoadFacts(step.add); err != nil {
			t.Fatal(err)
		}
		rep, err := Check(context.Background(), p, db, "?- sg(a,Y).", []lincount.Strategy{lincount.Auto}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if run := rep.Runs[0]; !rep.OK() || run.Class != OK || run.Resolved != step.want || run.Degraded != 0 {
			t.Errorf("after %q: want auto via %s, undegraded and agreeing with the baseline:\n%s", step.add, step.want, rep)
		}
		if !strings.Contains(rep.String(), "via "+step.want.String()) {
			t.Errorf("report does not name auto's pick:\n%s", rep)
		}
	}
}

func TestCheckClassifiesInjectedFault(t *testing.T) {
	p := lincount.MustParseProgram(ancestry)
	db := testDB(t, p)
	rep, err := Check(context.Background(), p, db, "?- anc(a, Y).",
		[]lincount.Strategy{lincount.SemiNaive}, nil,
		[]lincount.Option{lincount.WithFaultInjection(1, "engine.insert=err@1")})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Runs[0].Class; got != InjectedFault {
		t.Fatalf("class = %s, want injected-fault (err: %s)", got, rep.Runs[0].Err)
	}
	if rep.OK() {
		// InjectedFault is an acceptable outcome — OK() must still hold.
	} else {
		t.Fatalf("injected fault must not fail the invariant:\n%s", rep)
	}
}

func TestCheckClassifiesInjectedCancel(t *testing.T) {
	p := lincount.MustParseProgram(ancestry)
	db := testDB(t, p)
	rep, err := Check(context.Background(), p, db, "?- anc(a, Y).",
		[]lincount.Strategy{lincount.SemiNaive}, nil,
		[]lincount.Option{lincount.WithFaultInjection(1, "engine.iter=cancel@1")})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Runs[0].Class; got != InjectedFault {
		t.Fatalf("class = %s, want injected-fault (injected cancel classifies as injection, not cancellation); err: %s",
			got, rep.Runs[0].Err)
	}
}

func TestCheckClassifiesResourceLimit(t *testing.T) {
	p := lincount.MustParseProgram(ancestry)
	db := testDB(t, p)
	rep, err := Check(context.Background(), p, db, "?- anc(a, Y).",
		[]lincount.Strategy{lincount.SemiNaive}, nil,
		[]lincount.Option{lincount.WithMaxDerivedFacts(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Runs[0].Class; got != ResourceLimit {
		t.Fatalf("class = %s, want resource-limit (err: %s)", got, rep.Runs[0].Err)
	}
}

func TestCheckClassifiesNotApplicable(t *testing.T) {
	// Non-linear recursion: the counting rewritings must bow out.
	p := lincount.MustParseProgram(`
same(X, Y) :- par(X, Y).
same(X, Y) :- same(X, Z), same(Z, Y).
`)
	db := testDB(t, p)
	rep, err := Check(context.Background(), p, db, "?- same(a, Y).",
		[]lincount.Strategy{lincount.Counting}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Runs[0].Class; got != NotApplicable {
		t.Fatalf("class = %s, want not-applicable (err: %s)", got, rep.Runs[0].Err)
	}
}

func TestClassifyTaxonomy(t *testing.T) {
	if got := Classify(nil); got != OK {
		t.Fatalf("Classify(nil) = %s", got)
	}
	if got := Classify(context.Canceled); got != Canceled {
		t.Fatalf("Classify(context.Canceled) = %s", got)
	}
	if got := Classify(lincount.ErrInjectedFault); got != InjectedFault {
		t.Fatalf("Classify(ErrInjectedFault) = %s", got)
	}
	if got := Classify(lincount.ErrResourceLimit); got != ResourceLimit {
		t.Fatalf("Classify(ErrResourceLimit) = %s", got)
	}
	if got := Classify(&lincount.InternalError{}); got != Internal {
		t.Fatalf("Classify(InternalError) = %s", got)
	}
	if got := Classify(context.DeadlineExceeded); got != Canceled {
		t.Fatalf("Classify(DeadlineExceeded) = %s", got)
	}
	if got := Classify(strings.NewReader("").UnreadByte()); got != Failed {
		t.Fatalf("Classify(random error) = %s", got)
	}
}

func TestDiffAnswers(t *testing.T) {
	base := [][]string{{"a"}, {"b"}, {"c"}}
	got := [][]string{{"b"}, {"c"}, {"d"}}
	missing, extra := diffAnswers(base, got)
	if len(missing) != 1 || missing[0] != "a" {
		t.Fatalf("missing = %v", missing)
	}
	if len(extra) != 1 || extra[0] != "d" {
		t.Fatalf("extra = %v", extra)
	}
}

// boundHeadCases are TestBoundHeadPatterns' programs. Each seed is the
// case in FuzzOracle's encoding (decodeOracleCase); the third seed's data
// has k for f.
var boundHeadCases = []struct {
	name, program, facts, query string
	seed                        []byte
}{
	{"repeated variable", "p(X,W,Y) :- flat(X,W,Y).\np(X,X,Y) :- p(X,X,Z), down(Z,Y).\n",
		"flat(a,b,c). down(c,d).", "?- p(a,b,Y).",
		[]byte{0, 1, 1, 1, 0, 1, 0, 0, 1, 2, 2, 2, 3, 0}},
	{"constant", "p(X,W,Y) :- flat(X,W,Y).\np(X,k,Y) :- p(X,k,Z), down(Z,Y).\n",
		"flat(a,b,c). down(c,d).", "?- p(a,b,Y).",
		[]byte{0, 2, 2, 1, 0, 1, 0, 0, 1, 2, 2, 2, 3, 0}},
	{"repeated variable, matching query", "p(X,W,Y) :- flat(X,W,Y).\np(X,X,Y) :- p(X,X,Z), down(Z,Y).\n",
		"flat(a,a,c). flat(a,b,e). down(c,d). down(e,f).", "?- p(a,a,Y).",
		[]byte{0, 1, 1, 1, 0, 0, 0, 0, 0, 2, 0, 0, 1, 4, 2, 2, 3, 0, 2, 4, 5, 0}},
}

// TestBoundHeadPatterns holds every strategy to the baseline on rules
// that stay at their node under a bound head pattern: a repeated
// variable or a constant among the bound arguments filters the node, a
// filter no counting method applies, so the counting family refuses them
// and Auto runs magic sets. Without that filter the first two cases
// would also answer (a,b,d); the third, whose filter the query
// satisfies, must answer without tripping the iteration limit.
func TestBoundHeadPatterns(t *testing.T) {
	for _, c := range boundHeadCases {
		t.Run(c.name, func(t *testing.T) {
			p := lincount.MustParseProgram(c.program)
			db := lincount.NewDatabase(p)
			if err := db.LoadFacts(c.facts); err != nil {
				t.Fatal(err)
			}
			rep, err := Check(context.Background(), p, db, c.query, lincount.Strategies(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("strategies disagree with the baseline:\n%s", rep)
			}
			for _, run := range rep.Runs {
				switch {
				case run.Strategy == lincount.Auto && run.Class != OK:
					t.Errorf("auto: %s: %s", run.Class, run.Err)
				case run.Class == ResourceLimit:
					t.Errorf("%s tripped a limit: %s", run.Strategy, run.Err)
				}
			}
		})
	}
}
