package counting

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lincount/internal/adorn"
	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/limits"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

type rwFixture struct {
	bank *term.Bank
	db   *database.Database
	prog *ast.Program
	q    ast.Query
}

func newRW(t *testing.T, src, goal, facts string) *rwFixture {
	t.Helper()
	b := term.NewBank(symtab.New())
	db := database.New(b)
	if facts != "" {
		if err := db.LoadText(facts); err != nil {
			t.Fatal(err)
		}
	}
	res, err := parser.Parse(b, src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(b, goal)
	if err != nil {
		t.Fatal(err)
	}
	return &rwFixture{bank: b, db: db, prog: res.Program, q: q}
}

func (f *rwFixture) adorned(t *testing.T) *adorn.Adorned {
	t.Helper()
	a, err := adorn.Adorn(f.prog, f.q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// rewriteExtended and rewriteClassic rewrite an adorned query the way the
// compilation pipeline does: Analyze, then the rewrite from the analysis.
func rewriteExtended(a *adorn.Adorned) (*Rewritten, error) {
	an, err := Analyze(a)
	if err != nil {
		return nil, err
	}
	return RewriteFromAnalysis(an)
}

func rewriteClassic(a *adorn.Adorned) (*Rewritten, error) {
	an, err := Analyze(a)
	if err != nil {
		return nil, err
	}
	return RewriteClassicFromAnalysis(an)
}

func (f *rwFixture) extended(t *testing.T) *Rewritten {
	t.Helper()
	rw, err := rewriteExtended(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	return rw
}

// evalAnswers evaluates a rewritten query and returns its answers
// formatted and sorted.
func evalAnswers(t *testing.T, f *rwFixture, rw *Rewritten) []string {
	t.Helper()
	res, err := engine.Eval(rw.Program, f.db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return formatSorted(f.bank, engine.Answers(res, f.db, rw.Query))
}

// plainAnswers evaluates the original program bottom-up.
func plainAnswers(t *testing.T, f *rwFixture) []string {
	t.Helper()
	res, err := engine.Eval(f.prog, f.db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return formatSorted(f.bank, engine.Answers(res, f.db, f.q))
}

func ruleSet(b *term.Bank, p *ast.Program) map[string]bool {
	out := map[string]bool{}
	for _, r := range p.Rules {
		out[ast.FormatRule(b, r)] = true
	}
	return out
}

func wantRules(t *testing.T, b *term.Bank, p *ast.Program, want []string) {
	t.Helper()
	got := ruleSet(b, p)
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing rule %q in:\n%s", w, p.Format())
		}
	}
	if len(got) != len(want) {
		t.Errorf("program has %d rules, want %d:\n%s", len(got), len(want), p.Format())
	}
}

// TestExample1ExtendedRewrite reproduces the structure of Example 1's
// counting program (single rule, no shared variables): the path argument
// plays the role of the integer index.
func TestExample1ExtendedRewrite(t *testing.T) {
	f := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).", "")
	rw := f.extended(t)
	wantRules(t, f.bank, rw.Program, []string{
		"c_sg_bf(a,[]).",
		"c_sg_bf(X1,[e(r1,[])|L]) :- c_sg_bf(X,L), up(X,X1).",
		"sg_bf(Y,L) :- c_sg_bf(X,L), flat(X,Y).",
		"sg_bf(Y,L) :- sg_bf(Y1,[e(r1,[])|L]), down(Y1,Y).",
	})
	if got := ast.FormatQuery(f.bank, rw.Query); got != "?- sg_bf(Y,[])." {
		t.Errorf("query = %s", got)
	}
}

// TestExample3MultiRule reproduces Example 3: two recursive rules; the path
// records which rule was applied so the answer phase can undo them in
// reverse order.
func TestExample3MultiRule(t *testing.T) {
	f := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up1(X,X1), sg(X1,Y1), down1(Y1,Y).
sg(X,Y) :- up2(X,X1), sg(X1,Y1), down2(Y1,Y).
`, "?- sg(a,Y).", "")
	rw := f.extended(t)
	wantRules(t, f.bank, rw.Program, []string{
		"c_sg_bf(a,[]).",
		"c_sg_bf(X1,[e(r1,[])|L]) :- c_sg_bf(X,L), up1(X,X1).",
		"c_sg_bf(X1,[e(r2,[])|L]) :- c_sg_bf(X,L), up2(X,X1).",
		"sg_bf(Y,L) :- c_sg_bf(X,L), flat(X,Y).",
		"sg_bf(Y,L) :- sg_bf(Y1,[e(r1,[])|L]), down1(Y1,Y).",
		"sg_bf(Y,L) :- sg_bf(Y1,[e(r2,[])|L]), down2(Y1,Y).",
	})
}

// TestExample3RuleSequencesMatter verifies the point of Example 3: the
// answer phase must undo the rules in reverse order of their application.
// With up1;up2 applied downward, only down2;down1 leads back to an answer.
func TestExample3RuleSequencesMatter(t *testing.T) {
	f := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up1(X,X1), sg(X1,Y1), down1(Y1,Y).
sg(X,Y) :- up2(X,X1), sg(X1,Y1), down2(Y1,Y).
`, "?- sg(a,Y).", `
up1(a,b). up2(b,c). flat(c,c2).
down2(c2,d). down1(d,good).
down1(c2,e). down2(e,bad).
`)
	rw := f.extended(t)
	got := evalAnswers(t, f, rw)
	if fmt.Sprint(got) != "[good,[]]" {
		t.Errorf("answers = %v, want [good,[]]", got)
	}
	if fmt.Sprint(plainAnswers(t, f)) != "[a,good]" {
		t.Errorf("plain answers disagree: %v", plainAnswers(t, f))
	}
}

// TestExample4Rewrite reproduces the rewritten program of Example 4 in its
// sound list form. The paper's §3.2 prose prescribes storing in the path
// entries the values of every variable the answer phase needs; its
// Example 4 listing then short-cuts the bound head variable X of rule r2
// through a counting-predicate join (`c_p(X,L)`), which is only correct
// under the §3.4 pointer reading — with path lists, non-pushing rules can
// make several counting nodes share one path and the join picks the wrong
// node (our random-program fuzz test exposes this). We therefore emit the
// §3.2 form: X is stored in r2's entry and no counting literal is needed.
// The omission of the counting literal in the r1 modified rule (D_r = ∅)
// matches the paper's remark verbatim.
func TestExample4Rewrite(t *testing.T) {
	f := newRW(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up1(X,X1,W), p(X1,Y1), down1(Y1,Y,W).
p(X,Y) :- up2(X,X1), p(X1,Y1), down2(Y1,Y,X).
`, "?- p(a,Y).", "")
	rw := f.extended(t)
	wantRules(t, f.bank, rw.Program, []string{
		"c_p_bf(a,[]).",
		"c_p_bf(X1,[e(r1,[W])|L]) :- c_p_bf(X,L), up1(X,X1,W).",
		"c_p_bf(X1,[e(r2,[X])|L]) :- c_p_bf(X,L), up2(X,X1).",
		"p_bf(Y,L) :- c_p_bf(X,L), flat(X,Y).",
		"p_bf(Y,L) :- p_bf(Y1,[e(r1,[W])|L]), down1(Y1,Y,W).",
		"p_bf(Y,L) :- p_bf(Y1,[e(r2,[X])|L]), down2(Y1,Y,X).",
	})
}

// TestPathAmbiguityIsSound is the regression test for the soundness fix:
// a rule with D_r ≠ ∅ mixed with right-linear (non-pushing) rules, on data
// where several counting nodes share the empty path. The Example 4
// shortcut would join c_p(X,[]) and wrongly admit X = a.
func TestPathAmbiguityIsSound(t *testing.T) {
	f := newRW(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up1(X,X1), p(X1,Y1), down1(Y1,Y,X).
p(X,Y) :- up2(X,X1), p(X1,Y).
`, "?- p(a,Y).", `
up2(a,b). up1(b,c). flat(c,fc).
down1(fc,viaB,b). down1(fc,viaA,a).
`)
	rw := f.extended(t)
	got := evalAnswers(t, f, rw)
	// Only viaB is derivable: the up1 step was taken at node b, so the
	// down1 step must use X = b. (flat(c,fc) also makes fc an answer at
	// node c... it does not: answers surface only at the source path [].)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, pr := range plain {
		plainFree = append(plainFree, strings.SplitN(pr, ",", 2)[1]+",[]")
	}
	if fmt.Sprint(got) != fmt.Sprint(plainFree) {
		t.Errorf("extended %v, plain %v", got, plainFree)
	}
	for _, g := range got {
		if strings.Contains(g, "viaA") {
			t.Errorf("unsound answer viaA derived: %v", got)
		}
	}
}

// TestExample4FirstDatabase checks the exact fact sets the paper lists for
// the first database of Example 4.
func TestExample4FirstDatabase(t *testing.T) {
	f := newRW(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up1(X,X1,W), p(X1,Y1), down1(Y1,Y,W).
p(X,Y) :- up2(X,X1), p(X1,Y1), down2(Y1,Y,X).
`, "?- p(a,Y).", `
up1(a,b,1). flat(b,c). down1(c,d,2). down1(c,e,1).
`)
	rw := f.extended(t)
	res, err := engine.Eval(rw.Program, f.db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Counting set: c_p(a,[]), c_p(b,[(r1,[1])]).
	cp := res.Relation(f.bank.Symbols().Intern("c_p_bf"))
	if cp.Len() != 2 {
		t.Errorf("counting set has %d tuples, want 2", cp.Len())
	}
	// Answer set: p(c,[(r1,[1])]), p(e,[]).
	p := res.Relation(f.bank.Symbols().Intern("p_bf"))
	gotP := map[string]bool{}
	for _, tu := range p.Tuples() {
		gotP[f.bank.Format(tu[0])+"/"+f.bank.Format(tu[1])] = true
	}
	want := []string{"c/[e(r1,[1])]", "e/[]"}
	for _, w := range want {
		if !gotP[w] {
			t.Errorf("missing p tuple %s, got %v", w, gotP)
		}
	}
	if len(gotP) != 2 {
		t.Errorf("p has %d tuples, want 2: %v", len(gotP), gotP)
	}
	if got := evalAnswers(t, f, rw); fmt.Sprint(got) != "[e,[]]" {
		t.Errorf("answers = %v", got)
	}
	if got := plainAnswers(t, f); fmt.Sprint(got) != "[a,e]" {
		t.Errorf("plain answers = %v", got)
	}
}

// TestExample4SecondDatabase checks the second database of Example 4: the
// bound head variable X of rule r2 constrains down1 via the counting
// predicate.
func TestExample4SecondDatabase(t *testing.T) {
	f := newRW(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up1(X,X1,W), p(X1,Y1), down1(Y1,Y,W).
p(X,Y) :- up2(X,X1), p(X1,Y1), down2(Y1,Y,X).
`, "?- p(a,Y).", `
up2(a,b). flat(b,c). down2(c,d,b). down2(c,e,a).
`)
	rw := f.extended(t)
	got := evalAnswers(t, f, rw)
	if fmt.Sprint(got) != "[e,[]]" {
		t.Errorf("answers = %v, want [e,[]] (down2 must be joined with X=a)", got)
	}
	if fmt.Sprint(plainAnswers(t, f)) != "[a,e]" {
		t.Errorf("plain answers disagree")
	}
}

// TestExtendedEquivalenceAcyclic is the Theorem 1 check on a batch of
// acyclic databases: extended counting and plain evaluation agree.
func TestExtendedEquivalenceAcyclic(t *testing.T) {
	cases := []struct{ src, goal, facts string }{
		{
			`sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).`,
			"?- sg(a,Y).",
			`up(a,b). up(b,c). up(a,d). flat(c,c2). flat(d,d2). flat(b,b2).
down(c2,x1). down(x1,x2). down(b2,x3). down(d2,x4). down(x4,x5).`,
		},
		{
			`p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), q(X1,Y1), down(Y1,Y).
q(X,Y) :- over(X,X1), p(X1,Y1), under(Y1,Y).`,
			"?- p(s,Y).",
			`up(s,m). over(m,k). flat(k,k2). flat(s,s2). flat(m,m2).
under(k2,u1). down(u1,v1). under(m2,u2). down(m2,v2).`,
		},
		{
			`r(X,Y) :- base(X,Y).
r(X,Y) :- step(X,W,X1), r(X1,Y1), back(Y1,Y,W).`,
			"?- r(n0,Y).",
			`step(n0,w1,n1). step(n1,w2,n2). step(n0,w3,n2).
base(n2,b1). base(n1,b2). base(n0,b3).
back(b1,c1,w2). back(c1,c2,w1). back(b1,c3,w3). back(b2,c4,w1). back(b2,c5,w9).`,
		},
	}
	for i, c := range cases {
		f := newRW(t, c.src, c.goal, c.facts)
		rw := f.extended(t)
		got := evalAnswers(t, f, rw)
		plain := plainAnswers(t, f)
		// Plain answers have the bound argument; extended answers carry
		// (free..., path) with path []. Compare the free parts.
		var plainFree, gotFree []string
		for _, p := range plain {
			parts := strings.SplitN(p, ",", 2)
			plainFree = append(plainFree, parts[1])
		}
		for _, g := range got {
			gotFree = append(gotFree, strings.TrimSuffix(g, ",[]"))
		}
		if fmt.Sprint(plainFree) != fmt.Sprint(gotFree) {
			t.Errorf("case %d: plain %v, extended %v", i, plainFree, gotFree)
		}
	}
}

// TestExtendedUnsafeOnCyclicData documents the limitation Theorem 1 states:
// on cyclic left-part data the Algorithm 1 program diverges, which the
// engine budget reports as an error (Algorithm 2's runtime handles cycles).
func TestExtendedUnsafeOnCyclicData(t *testing.T) {
	f := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).", `
up(a,b). up(b,a). flat(a,f). down(f,g).
`)
	rw := f.extended(t)
	_, err := engine.Eval(rw.Program, f.db, engine.Options{MaxDerivedFacts: 10000})
	if !errors.Is(err, limits.ErrResourceLimit) {
		t.Errorf("err = %v, want limits.ErrResourceLimit", err)
	}
}

// TestClassicExample1 reproduces the classical counting rewrite of
// Example 1 with an integer index.
func TestClassicExample1(t *testing.T) {
	f := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).", "")
	rw, err := rewriteClassic(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	wantRules(t, f.bank, rw.Program, []string{
		"c_sg_bf(a,0).",
		"c_sg_bf(X1,I1) :- c_sg_bf(X,I), up(X,X1), succ(I,I1).",
		"sg_bf(Y,I) :- c_sg_bf(X,I), flat(X,Y).",
		"sg_bf(Y,I) :- sg_bf(Y1,I1), succ(I,I1), I >= 0, down(Y1,Y).",
	})
	if got := ast.FormatQuery(f.bank, rw.Query); got != "?- sg_bf(Y,0)." {
		t.Errorf("query = %s", got)
	}
}

func TestClassicEvaluates(t *testing.T) {
	f := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).", `
up(a,b). up(b,c). flat(c,c2). down(c2,d1). down(d1,d2).
`)
	rw, err := rewriteClassic(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	got := evalAnswers(t, f, rw)
	if fmt.Sprint(got) != "[d2,0]" {
		t.Errorf("answers = %v", got)
	}
}

func TestClassicRejectsMultipleRules(t *testing.T) {
	f := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up1(X,X1), sg(X1,Y1), down1(Y1,Y).
sg(X,Y) :- up2(X,X1), sg(X1,Y1), down2(Y1,Y).
`, "?- sg(a,Y).", "")
	if _, err := rewriteClassic(f.adorned(t)); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable", err)
	}
}

func TestClassicRejectsSharedVariables(t *testing.T) {
	f := newRW(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1,W), p(X1,Y1), down(Y1,Y,W).
`, "?- p(a,Y).", "")
	if _, err := rewriteClassic(f.adorned(t)); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable", err)
	}
}

func TestClassicRejectsBoundHeadVarInRight(t *testing.T) {
	f := newRW(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y1), down(Y1,Y,X).
`, "?- p(a,Y).", "")
	if _, err := rewriteClassic(f.adorned(t)); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable", err)
	}
}

// TestExtendedMutualRecursion: two mutually recursive predicates with
// different relations; counting predicates are generated for both.
func TestExtendedMutualRecursion(t *testing.T) {
	f := newRW(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), q(X1,Y1), down(Y1,Y).
q(X,Y) :- over(X,X1), p(X1,Y1), under(Y1,Y).
`, "?- p(a,Y).", `
up(a,b). over(b,c). up(c,d).
flat(d,d2). flat(a,a2).
under(d2,u). down(u,v). under(v,w). down(a2,z).
`)
	rw := f.extended(t)
	text := rw.Program.Format()
	if !strings.Contains(text, "c_p_bf") || !strings.Contains(text, "c_q_bf") {
		t.Fatalf("missing counting predicates:\n%s", text)
	}
	got := evalAnswers(t, f, rw)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	var gotFree []string
	for _, g := range got {
		gotFree = append(gotFree, strings.TrimSuffix(g, ",[]"))
	}
	if fmt.Sprint(plainFree) != fmt.Sprint(gotFree) {
		t.Errorf("plain %v, extended %v", plainFree, gotFree)
	}
}
