package engine

import (
	"fmt"
	"strings"
	"testing"

	"lincount/internal/obsv"
)

// Scenario tests: larger shapes and edge cases the unit tests do not
// reach — deep strata chains, wide joins, list-heavy recursion, trace
// behaviour and mixed negation layers.

func TestDeepStrataChain(t *testing.T) {
	// p0 is base; p_{i+1}(X) :- p_i(X), not q_i(X). Fifty strata.
	f := newFixture(t, "p0(a). p0(b). q3(b). q17(a).")
	var src strings.Builder
	const depth = 50
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&src, "p%d(X) :- p%d(X), not q%d(X).\n", i+1, i, i)
	}
	tr := obsv.NewTracer()
	res := eval(t, f, src.String(), Options{Tracer: tr})
	top := res.Relation(f.bank.Symbols().Intern(fmt.Sprintf("p%d", depth)))
	// a removed at stratum 17, b at stratum 3.
	if top == nil || top.Len() != 0 {
		t.Errorf("p%d = %d tuples, want 0", depth, top.Len())
	}
	mid := res.Relation(f.bank.Symbols().Intern("p10"))
	if mid.Len() != 1 { // only a survives past q3
		t.Errorf("p10 = %d tuples, want 1", mid.Len())
	}
	components := 0
	for _, e := range tr.Events() {
		if strings.HasPrefix(e.Name, "component ") {
			components++
		}
	}
	if components < depth {
		t.Errorf("components = %d", components)
	}
}

func TestWideJoin(t *testing.T) {
	// A five-way join with a single satisfying combination.
	f := newFixture(t, `
r1(a,b). r1(a,x).
r2(b,c). r2(x,y).
r3(c,d). r3(y,z1).
r4(d,e). r4(z1,z2).
r5(e,f).
`)
	res := eval(t, f, "j(A,F) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F).", Options{})
	got := f.answers(t, res, "?- j(A,F).")
	if fmt.Sprint(got) != "[a,f]" {
		t.Errorf("join = %v", got)
	}
}

func TestListAccumulatorRecursion(t *testing.T) {
	// Collect a path as a list while walking a chain — exercises compound
	// head construction under recursion.
	f := newFixture(t, "e(a,b). e(b,c). e(c,d).")
	res := eval(t, f, `
walk(X,[X]) :- start(X).
walk(Y,[Y|P]) :- walk(X,P), e(X,Y).
start(a).
`, Options{})
	got := f.answers(t, res, "?- walk(d,P).")
	if fmt.Sprint(got) != "[d,[d,c,b,a]]" {
		t.Errorf("walk = %v", got)
	}
}

func TestDiamondDedup(t *testing.T) {
	// Many derivations of the same fact must count inferences but keep
	// one tuple.
	f := newFixture(t, `
e(s,a1). e(s,a2). e(s,a3).
e(a1,t). e(a2,t). e(a3,t).
`)
	res := eval(t, f, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n", Options{})
	tc := res.Relation(f.bank.Symbols().Intern("tc"))
	// s→a1,a2,a3,t; a1,a2,a3→t: 7 tuples.
	if tc.Len() != 7 {
		t.Errorf("tc = %d tuples", tc.Len())
	}
	if res.Stats.Inferences <= int64(tc.Len()) {
		t.Errorf("expected rederivations; inferences = %d", res.Stats.Inferences)
	}
}

// iterationSpans returns the args of the "iteration" spans tr recorded,
// in start order.
func iterationSpans(tr *obsv.Tracer) []map[string]int64 {
	var out []map[string]int64
	for _, e := range tr.Events() {
		if e.Name != "iteration" {
			continue
		}
		args := map[string]int64{}
		for _, a := range e.Args {
			args[a.Key] = a.Val
		}
		out = append(out, args)
	}
	return out
}

func TestTraceMonotoneTotals(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,d).")
	tr := obsv.NewTracer()
	_, err := Eval(f.program(t, `
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
`), f.db, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	iters := iterationSpans(tr)
	var last int64
	for _, it := range iters {
		if it["total"] < last {
			t.Error("total decreased")
		}
		last = it["total"]
	}
	if len(iters) < 3 {
		t.Fatalf("iterations traced = %d", len(iters))
	}
	// The final iteration must report an empty delta.
	if final := iters[len(iters)-1]; final["delta"] != 0 {
		t.Errorf("final iteration = %v", final)
	}
}

func TestNaiveTraceEvents(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,d). e(d,e).")
	tr := obsv.NewTracer()
	_, err := Eval(f.program(t, `
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
`), f.db, Options{Naive: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(iterationSpans(tr)); n < 3 {
		t.Errorf("naive iteration spans = %d", n)
	}
}

func TestSamePredicateManyRules(t *testing.T) {
	// Twelve rules for one predicate, each contributing one tuple.
	f := newFixture(t, "seed(0).")
	var src strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&src, "n(%d) :- seed(0).\n", i)
	}
	res := eval(t, f, src.String(), Options{})
	if got := res.Relation(f.bank.Symbols().Intern("n")).Len(); got != 12 {
		t.Errorf("n = %d tuples", got)
	}
}

func TestLongChainIterationCount(t *testing.T) {
	// Right recursion on a chain of length n takes ~n semi-naive rounds;
	// verifies the fixpoint does not terminate early or spin extra.
	const n = 200
	var facts strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&facts, "e(v%d,v%d). ", i, i+1)
	}
	f := newFixture(t, facts.String())
	res := eval(t, f, "r(X) :- e(v0,X).\nr(Y) :- r(X), e(X,Y).\n", Options{})
	rel := res.Relation(f.bank.Symbols().Intern("r"))
	if rel.Len() != n {
		t.Errorf("r = %d tuples, want %d", rel.Len(), n)
	}
	if res.Stats.Iterations < n || res.Stats.Iterations > n+3 {
		t.Errorf("iterations = %d, want ~%d", res.Stats.Iterations, n)
	}
}

func TestGroundRuleBodies(t *testing.T) {
	// Fully ground bodies act as conditional facts.
	f := newFixture(t, "cond(yes).")
	res := eval(t, f, `
out(1) :- cond(yes).
out(2) :- cond(no).
`, Options{})
	got := f.answers(t, res, "?- out(X).")
	if fmt.Sprint(got) != "[1]" {
		t.Errorf("out = %v", got)
	}
}

func TestAnswersWithCompoundGoalArgs(t *testing.T) {
	f := newFixture(t, "holds(box(a),1). holds(box(b),2). holds(crate(a),3).")
	res := eval(t, f, "h(X,N) :- holds(X,N).", Options{})
	if got := f.answers(t, res, "?- h(box(W),N)."); fmt.Sprint(got) != "[box(a),1 box(b),2]" {
		t.Errorf("answers = %v", got)
	}
	if got := f.answers(t, res, "?- h(box(a),N)."); fmt.Sprint(got) != "[box(a),1]" {
		t.Errorf("answers = %v", got)
	}
	// Repeated variables in the goal filter answers.
	f2 := newFixture(t, "pair(a,a). pair(a,b). pair(b,b).")
	res2 := eval(t, f2, "pp(X,Y) :- pair(X,Y).", Options{})
	if got := f2.answers(t, res2, "?- pp(X,X)."); fmt.Sprint(got) != "[a,a b,b]" {
		t.Errorf("repeated-var answers = %v", got)
	}
}

func TestNegationOfEmptyRelation(t *testing.T) {
	f := newFixture(t, "item(a). item(b).")
	res := eval(t, f, "ok(X) :- item(X), not banned(X).", Options{})
	if got := f.answers(t, res, "?- ok(X)."); fmt.Sprint(got) != "[a b]" {
		t.Errorf("ok = %v", got)
	}
}

func TestBuiltinChainsBothDirections(t *testing.T) {
	f := newFixture(t, "n(5).")
	res := eval(t, f, `
around(A,B) :- n(X), succ(A,X), succ(X,B).
`, Options{})
	if got := f.answers(t, res, "?- around(A,B)."); fmt.Sprint(got) != "[4,6]" {
		t.Errorf("around = %v", got)
	}
}

func TestSharedBankAcrossEvaluations(t *testing.T) {
	// Two programs over one database/bank must not interfere.
	f := newFixture(t, "e(a,b). e(b,c).")
	res1 := eval(t, f, "one(X,Y) :- e(X,Y).", Options{})
	res2 := eval(t, f, "two(X) :- e(X,_).", Options{})
	if res1.Relation(f.bank.Symbols().Intern("one")).Len() != 2 {
		t.Error("first evaluation wrong")
	}
	if res2.Relation(f.bank.Symbols().Intern("two")).Len() != 2 {
		t.Error("second evaluation wrong")
	}
	if res2.Relation(f.bank.Symbols().Intern("one")) != nil {
		t.Error("evaluations leaked derived relations")
	}
}
