package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/limits"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

type fixture struct {
	bank *term.Bank
	db   *database.Database
}

func newFixture(t *testing.T, facts string) *fixture {
	t.Helper()
	b := term.NewBank(symtab.New())
	db := database.New(b)
	if facts != "" {
		if err := db.LoadText(facts); err != nil {
			t.Fatal(err)
		}
	}
	return &fixture{bank: b, db: db}
}

func (f *fixture) program(t *testing.T, src string) *ast.Program {
	t.Helper()
	res, err := parser.Parse(f.bank, src)
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

func (f *fixture) answers(t *testing.T, res *Result, goal string) []string {
	t.Helper()
	q, err := parser.ParseQuery(f.bank, goal)
	if err != nil {
		t.Fatal(err)
	}
	ts := Answers(res, f.db, q)
	out := make([]string, len(ts))
	for i, tu := range ts {
		parts := make([]string, len(tu))
		for j, v := range tu {
			parts[j] = f.bank.Format(v)
		}
		out[i] = strings.Join(parts, ",")
	}
	return out
}

func eval(t *testing.T, f *fixture, src string, opts Options) *Result {
	t.Helper()
	res, err := Eval(f.program(t, src), f.db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTransitiveClosureChain(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,d).")
	res := eval(t, f, `
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
`, Options{})
	got := f.answers(t, res, "?- tc(a,X).")
	want := []string{"a,b", "a,c", "a,d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tc(a,X) = %v, want %v", got, want)
	}
	if res.Relation(f.bank.Symbols().Intern("tc")).Len() != 6 {
		t.Errorf("tc has %d tuples, want 6", res.Relation(f.bank.Symbols().Intern("tc")).Len())
	}
}

func TestTransitiveClosureCycleTerminates(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,a).")
	res := eval(t, f, `
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
`, Options{})
	tc := res.Relation(f.bank.Symbols().Intern("tc"))
	if tc.Len() != 9 {
		t.Errorf("tc on 3-cycle has %d tuples, want 9", tc.Len())
	}
}

func TestSameGeneration(t *testing.T) {
	// A small tree: a has children b,c; b has children d,e.
	f := newFixture(t, `
up(d,b). up(e,b). up(b,a). up(c,a).
flat(a,a). flat(b,c). flat(c,b).
down(a,a). down(b,d). down(c,e).
`)
	res := eval(t, f, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, Options{})
	got := f.answers(t, res, "?- sg(d,Y).")
	// d up b flat c down e; so sg(d,e). Also d up b up a flat a down a down ...
	if len(got) == 0 {
		t.Fatal("no same-generation answers")
	}
	found := false
	for _, g := range got {
		if g == "d,e" {
			found = true
		}
	}
	if !found {
		t.Errorf("sg(d,e) missing from %v", got)
	}
}

func TestNaiveAndSemiNaiveAgree(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,d). e(d,b). e(d,e).")
	src := `
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
`
	semi := eval(t, f, src, Options{})
	naive := eval(t, f, src, Options{Naive: true})
	tc := f.bank.Symbols().Intern("tc")
	a, b := semi.Relation(tc), naive.Relation(tc)
	if a.Len() != b.Len() {
		t.Fatalf("semi-naive %d tuples, naive %d", a.Len(), b.Len())
	}
	for _, tu := range a.Tuples() {
		if !b.Contains(tu) {
			t.Errorf("naive missing %v", tu)
		}
	}
	if naive.Stats.Inferences < semi.Stats.Inferences {
		t.Errorf("naive made fewer inferences (%d) than semi-naive (%d)",
			naive.Stats.Inferences, semi.Stats.Inferences)
	}
}

func TestRightRecursionAndNonlinearAgree(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,d). e(d,e). e(e,f).")
	right := eval(t, f, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n", Options{})
	left := eval(t, f, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y).\n", Options{})
	quad := eval(t, f, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).\n", Options{})
	tc := f.bank.Symbols().Intern("tc")
	n := right.Relation(tc).Len()
	if left.Relation(tc).Len() != n || quad.Relation(tc).Len() != n {
		t.Errorf("variants disagree: %d / %d / %d",
			n, left.Relation(tc).Len(), quad.Relation(tc).Len())
	}
	if n != 15 {
		t.Errorf("tc on 5-chain = %d tuples, want 15", n)
	}
}

func TestStratifiedNegation(t *testing.T) {
	f := newFixture(t, "node(a). node(b). node(c). e(a,b).")
	res := eval(t, f, `
reach(a).
reach(Y) :- reach(X), e(X,Y).
unreach(X) :- node(X), not reach(X).
`, Options{})
	got := f.answers(t, res, "?- unreach(X).")
	if fmt.Sprint(got) != "[c]" {
		t.Errorf("unreach = %v, want [c]", got)
	}
}

func TestNonStratifiedRejected(t *testing.T) {
	f := newFixture(t, "q(a).")
	_, err := Eval(f.program(t, `
p(X) :- q(X), not r(X).
r(X) :- q(X), not p(X).
`), f.db, Options{})
	if err == nil || !strings.Contains(err.Error(), "not stratified") {
		t.Errorf("err = %v, want not-stratified error", err)
	}
}

func TestNegationOverEarlierStratum(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). node(a). node(b). node(c).")
	res := eval(t, f, `
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
noloop(X) :- node(X), not tc(X,X).
`, Options{})
	got := f.answers(t, res, "?- noloop(X).")
	if fmt.Sprint(got) != "[a b c]" {
		t.Errorf("noloop = %v", got)
	}
}

func TestBuiltins(t *testing.T) {
	f := newFixture(t, "n(1). n(2). n(3).")
	res := eval(t, f, `
lt(X,Y) :- n(X), n(Y), X < Y.
ne(X,Y) :- n(X), n(Y), X != Y.
nx(X,Y) :- n(X), succ(X,Y).
same(X,Y) :- n(X), Y = X.
`, Options{})
	if got := f.answers(t, res, "?- lt(X,Y)."); fmt.Sprint(got) != "[1,2 1,3 2,3]" {
		t.Errorf("lt = %v", got)
	}
	if got := f.answers(t, res, "?- ne(1,Y)."); fmt.Sprint(got) != "[1,2 1,3]" {
		t.Errorf("ne = %v", got)
	}
	if got := f.answers(t, res, "?- nx(X,Y)."); fmt.Sprint(got) != "[1,2 2,3 3,4]" {
		t.Errorf("nx = %v", got)
	}
	if got := f.answers(t, res, "?- same(2,Y)."); fmt.Sprint(got) != "[2,2]" {
		t.Errorf("same = %v", got)
	}
}

func TestSuccOverflowBoundary(t *testing.T) {
	// At the edges of the 62-bit Value range succ fails instead of
	// overflowing.
	f := newFixture(t, fmt.Sprintf("big(%d). small(-%d).", int64(1)<<61-1, int64(1)<<61))
	res := eval(t, f, `
next(Y) :- big(X), succ(X,Y).
prev(X) :- small(Y), succ(X,Y).
`, Options{})
	if got := f.answers(t, res, "?- next(Y)."); len(got) != 0 {
		t.Errorf("next = %v, want none", got)
	}
	if got := f.answers(t, res, "?- prev(X)."); len(got) != 0 {
		t.Errorf("prev = %v, want none", got)
	}
}

func TestSuccBackward(t *testing.T) {
	f := newFixture(t, "m(5).")
	res := eval(t, f, "prev(X) :- m(Y), succ(X,Y).", Options{})
	if got := f.answers(t, res, "?- prev(X)."); fmt.Sprint(got) != "[4]" {
		t.Errorf("prev = %v", got)
	}
}

func TestListsInRules(t *testing.T) {
	f := newFixture(t, "")
	res := eval(t, f, `
l([a,b,c]).
member(X,[X|T]) :- l2([X|T]).
l2(L) :- l(L).
l2(T) :- l2([H|T]).
first(X) :- l([X|T]).
`, Options{})
	if got := f.answers(t, res, "?- first(X)."); fmt.Sprint(got) != "[a]" {
		t.Errorf("first = %v", got)
	}
	if got := f.answers(t, res, "?- member(X,[b,c])."); len(got) != 1 {
		t.Errorf("member = %v", got)
	}
}

func TestPathArgumentStack(t *testing.T) {
	// Mimics the counting rewrite: push/pop list cells through recursion.
	f := newFixture(t, "up(a,b). up(b,c). flat(c,c2). down(c2,b2). down(b2,a2).")
	res := eval(t, f, `
cp(a,[]).
cp(X1,[r|L]) :- cp(X,L), up(X,X1).
p(Y,L) :- cp(X,L), flat(X,Y).
p(Y,L) :- p(Y1,[r|L]), down(Y1,Y).
`, Options{})
	if got := f.answers(t, res, "?- p(Y,[])."); fmt.Sprint(got) != "[a2,[]]" {
		t.Errorf("p(Y,[]) = %v", got)
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	f := newFixture(t, "q(a).")
	cases := []string{
		"p(X,Y) :- q(X).",            // head var not in body
		"p(X) :- q(X), X < Y.",       // comparison with unbound var
		"p(X) :- not q(X).",          // negation with unbound var
		"p(X) :- q(Y), not r(X, Y).", // negation with unbound var
	}
	for _, src := range cases {
		if _, err := Eval(f.program(t, src), f.db, Options{}); err == nil {
			t.Errorf("unsafe rule %q accepted", src)
		}
	}
}

func TestArityMismatchRejected(t *testing.T) {
	f := newFixture(t, "q(a).")
	if _, err := Eval(f.program(t, "p(X) :- q(X), q(X,X)."), f.db, Options{}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestBudgetGuardOnInfiniteProgram(t *testing.T) {
	f := newFixture(t, "")
	_, err := Eval(f.program(t, `
count(0).
count(Y) :- count(X), succ(X,Y).
`), f.db, Options{MaxIterations: 500})
	if !errors.Is(err, limits.ErrResourceLimit) {
		t.Errorf("err = %v, want limits.ErrResourceLimit", err)
	}
	_, err = Eval(f.program(t, `
count(0).
count(Y) :- count(X), succ(X,Y).
`), f.db, Options{MaxDerivedFacts: 1000})
	if !errors.Is(err, limits.ErrResourceLimit) {
		t.Errorf("err = %v, want limits.ErrResourceLimit", err)
	}
}

func TestProgramFactsMergeWithDatabase(t *testing.T) {
	f := newFixture(t, "e(a,b).")
	res := eval(t, f, `
e(b,c).
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
`, Options{})
	got := f.answers(t, res, "?- tc(a,Y).")
	if fmt.Sprint(got) != "[a,b a,c]" {
		t.Errorf("tc(a,Y) = %v", got)
	}
}

func TestZeroArityPredicates(t *testing.T) {
	f := newFixture(t, "")
	res := eval(t, f, `
rainy.
wet :- rainy.
dry :- sunny.
`, Options{})
	wet := res.Relation(f.bank.Symbols().Intern("wet"))
	if wet == nil || wet.Len() != 1 {
		t.Error("wet not derived")
	}
	dry := res.Relation(f.bank.Symbols().Intern("dry"))
	if dry != nil && dry.Len() != 0 {
		t.Error("dry derived without sunny")
	}
}

func TestMutualRecursion(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,d). e(d,e).")
	res := eval(t, f, `
even(X,X) :- e(X,_).
even(X,Y) :- odd(X,Z), e(Z,Y).
odd(X,Y) :- even(X,Z), e(Z,Y).
`, Options{})
	got := f.answers(t, res, "?- even(a,Y).")
	if fmt.Sprint(got) != "[a,a a,c a,e]" {
		t.Errorf("even(a,Y) = %v", got)
	}
}

func TestDepGraphAnalysis(t *testing.T) {
	f := newFixture(t, "")
	p := f.program(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
top(X) :- sg(X,X).
`)
	comps, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	pos, rec := map[string]int{}, map[string]bool{}
	for i, c := range comps {
		for _, pr := range c.Preds {
			pos[f.bank.Symbols().String(pr)] = i
			rec[f.bank.Symbols().String(pr)] = c.Recursive
		}
	}
	if !rec["sg"] {
		t.Error("sg not self-recursive")
	}
	if pos["top"] == pos["sg"] || rec["top"] {
		t.Error("top and sg reported mutually recursive")
	}
	if pos["sg"] > pos["top"] {
		t.Error("top ordered before sg, which it depends on")
	}
	if _, ok := pos["up"]; ok {
		t.Error("base predicate up has a component")
	}
}

func TestStratifyOrder(t *testing.T) {
	f := newFixture(t, "")
	p := f.program(t, `
a(X) :- b(X).
b(X) :- base(X).
b(X) :- a(X).
c(X) :- a(X), not d(X).
d(X) :- base(X).
`)
	comps, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, c := range comps {
		for _, pr := range c.Preds {
			pos[f.bank.Symbols().String(pr)] = i
		}
	}
	if pos["a"] != pos["b"] {
		t.Error("a and b should share a component")
	}
	if !(pos["a"] < pos["c"] && pos["d"] < pos["c"]) {
		t.Errorf("topological order wrong: %v", pos)
	}
	for _, c := range comps {
		if len(c.Preds) == 2 && !c.Recursive {
			t.Error("a/b component not marked recursive")
		}
		if len(c.Preds) == 1 && c.Preds[0] == f.bank.Symbols().Intern("d") && c.Recursive {
			t.Error("d marked recursive")
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c).")
	res := eval(t, f, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n", Options{})
	if res.Stats.DerivedFacts != 3 {
		t.Errorf("DerivedFacts = %d, want 3", res.Stats.DerivedFacts)
	}
	if res.Stats.Inferences < 3 || res.Stats.Iterations < 2 || res.Stats.Probes == 0 {
		t.Errorf("stats look wrong: %+v", res.Stats)
	}
}

func TestSelfJoinSameVariable(t *testing.T) {
	f := newFixture(t, "e(a,a). e(a,b). e(b,b).")
	res := eval(t, f, "loop(X) :- e(X,X).", Options{})
	if got := f.answers(t, res, "?- loop(X)."); fmt.Sprint(got) != "[a b]" {
		t.Errorf("loop = %v", got)
	}
}

func TestConstantsInRuleBody(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(a,c).")
	res := eval(t, f, "fromA(Y) :- e(a,Y).", Options{})
	if got := f.answers(t, res, "?- fromA(Y)."); fmt.Sprint(got) != "[b c]" {
		t.Errorf("fromA = %v", got)
	}
}
