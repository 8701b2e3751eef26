package topdown

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"lincount/internal/adorn"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

type fixture struct {
	bank *term.Bank
	db   *database.Database
	a    *adorn.Adorned
}

func setup(t *testing.T, src, goal, facts string) *fixture {
	t.Helper()
	bank := term.NewBank(symtab.New())
	db := database.New(bank)
	if facts != "" {
		if err := db.LoadText(facts); err != nil {
			t.Fatal(err)
		}
	}
	res, err := parser.Parse(bank, src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(bank, goal)
	if err != nil {
		t.Fatal(err)
	}
	a, err := adorn.Adorn(res.Program, q)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{bank: bank, db: db, a: a}
}

func (f *fixture) qsqAnswers(t *testing.T) []string {
	t.Helper()
	res, err := Eval(f.a, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(res.Answers))
	for _, tu := range res.Answers {
		parts := make([]string, len(tu))
		for i, v := range tu {
			parts[i] = f.bank.Format(v)
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

func TestQSQSameGeneration(t *testing.T) {
	f := setup(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).", `
up(a,b). up(b,c). flat(c,c2). flat(b,b2).
down(c2,x1). down(x1,x2). down(b2,x3).
up(z,w). flat(w,w2).
`)
	got := f.qsqAnswers(t)
	if fmt.Sprint(got) != "[a,x2 a,x3]" {
		t.Errorf("answers = %v", got)
	}
}

func TestQSQRestrictsToRelevantInputs(t *testing.T) {
	f := setup(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).", `
up(a,b). flat(b,f). down(f,g).
up(z1,z2). up(z2,z3). up(z3,z4). flat(z4,q). down(q,r).
`)
	res, err := Eval(f.a, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Inputs: a and b only — never the z branch.
	if res.Stats.CountingNodes != 2 {
		t.Errorf("input tuples = %d, want 2", res.Stats.CountingNodes)
	}
}

func TestQSQCyclicData(t *testing.T) {
	f := setup(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).", `
up(a,b). up(b,c). up(c,d). up(d,e). up(e,d). up(b,e).
down(f,g). down(g,h). down(h,i). down(i,j). down(j,k). down(k,l).
flat(e,f).
`)
	got := f.qsqAnswers(t)
	if fmt.Sprint(got) != "[a,h a,j a,l]" {
		t.Errorf("Example 5 answers = %v", got)
	}
}

func TestQSQNonLinear(t *testing.T) {
	f := setup(t, `
tc(X,Y) :- e(X,Y).
tc(X,Y) :- tc(X,Z), tc(Z,Y).
`, "?- tc(a,Y).", "e(a,b). e(b,c). e(c,d). e(z,w).")
	got := f.qsqAnswers(t)
	if fmt.Sprint(got) != "[a,b a,c a,d]" {
		t.Errorf("tc = %v", got)
	}
}

func TestQSQMutualRecursion(t *testing.T) {
	f := setup(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), q(X1,Y1), down(Y1,Y).
q(X,Y) :- over(X,X1), p(X1,Y1), under(Y1,Y).
`, "?- p(a,Y).", `
up(a,b). over(b,c). flat(c,c2). flat(a,a2).
under(c2,u). down(u,v).
`)
	got := f.qsqAnswers(t)
	if fmt.Sprint(got) != "[a,a2 a,v]" {
		t.Errorf("p = %v", got)
	}
}

func TestQSQBuiltinsAndBaseNegation(t *testing.T) {
	f := setup(t, `
ok(X,Y) :- e(X,Y), not banned(Y).
next(X,N2) :- e(X,_), num(X,N), succ(N,N2), N2 > 1.
`, "?- ok(a,Y).", `
e(a,b). e(a,c). banned(b). num(a,1).
`)
	got := f.qsqAnswers(t)
	if fmt.Sprint(got) != "[a,c]" {
		t.Errorf("ok = %v", got)
	}
	f2 := setup(t, `
next(X,N2) :- e(X,_), num(X,N), succ(N,N2), N2 > 1.
`, "?- next(a,M).", "e(a,b). num(a,1).")
	if got := f2.qsqAnswers(t); fmt.Sprint(got) != "[a,2]" {
		t.Errorf("next = %v", got)
	}
}

func TestQSQRejectsNegatedDerived(t *testing.T) {
	f := setup(t, `
p(X) :- node(X), not q(X).
q(X) :- bad(X).
`, "?- p(a).", "node(a).")
	if _, err := Eval(f.a, f.db, Options{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestQSQAgainstBottomUpRandom(t *testing.T) {
	for seed := 0; seed < 10; seed++ {
		facts := randomFacts(seed)
		f := setup(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(n0,Y).", facts)
		got := f.qsqAnswers(t)

		// Bottom-up reference.
		res, err := parser.Parse(f.bank, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`)
		if err != nil {
			t.Fatal(err)
		}
		eres, err := engine.Eval(res.Program, f.db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		q, _ := parser.ParseQuery(f.bank, "?- sg(n0,Y).")
		var want []string
		for _, tu := range engine.Answers(eres, f.db, q) {
			want = append(want, f.bank.Format(tu[0])+","+f.bank.Format(tu[1]))
		}
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("seed %d: qsq %v, bottom-up %v\nfacts: %s", seed, got, want, facts)
		}
	}
}

func randomFacts(seed int) string {
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	var sb strings.Builder
	const nodes = 8
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&sb, "up(n%d,n%d). ", next(nodes), next(nodes))
		fmt.Fprintf(&sb, "down(m%d,m%d). ", next(nodes), next(nodes))
	}
	for i := 0; i < nodes; i++ {
		if next(2) == 0 {
			fmt.Fprintf(&sb, "flat(n%d,m%d). ", i, next(nodes))
		}
	}
	return sb.String()
}
