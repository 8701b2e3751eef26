package counting

import (
	"fmt"
	"strings"
	"testing"
)

// Edge cases of the rewrites and runtime beyond the paper's examples.

// TestConstantsInRuleHeads: exit and recursive rules with constants in
// bound and free head positions.
func TestConstantsInRuleHeads(t *testing.T) {
	f := newRW(t, `
p(root,toplevel).
p(X,Y) :- up(X,X1), p(X1,Y1), down(Y1,Y).
`, "?- p(a,Y).", `
up(a,root). down(toplevel,w).
`)
	// Plain evaluation: p(a,w) via the fact p(root,toplevel).
	plain := plainAnswers(t, f)
	if fmt.Sprint(plain) != "[a,w]" {
		t.Fatalf("plain = %v", plain)
	}
	rw := f.extended(t)
	got := evalAnswers(t, f, rw)
	if fmt.Sprint(got) != "[w,[]]" {
		t.Errorf("extended = %v", got)
	}
	// Runtime agrees.
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || f.bank.Format(res.Answers[0][0]) != "w" {
		t.Errorf("runtime = %v", res.Answers)
	}
}

// TestCompoundBoundArgument: the query constant is a compound term; nodes
// of the counting set are compounds.
func TestCompoundBoundArgument(t *testing.T) {
	f := newRW(t, `
r(X,Y) :- base(X,Y).
r(X,Y) :- step(X,X1), r(X1,Y1), back(Y1,Y).
`, "?- r(pair(a,b),Y).", `
step(pair(a,b),pair(b,c)). base(pair(b,c),hit). back(hit,out).
`)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || f.bank.Format(res.Answers[0][0]) != "out" {
		t.Errorf("runtime answers = %v", res.Answers)
	}
	if res.Stats.CountingNodes != 2 {
		t.Errorf("counting nodes = %d", res.Stats.CountingNodes)
	}
	// The extended rewrite also works.
	rw := f.extended(t)
	got := evalAnswers(t, f, rw)
	if fmt.Sprint(got) != "[out,[]]" {
		t.Errorf("extended = %v", got)
	}
}

// TestMultipleBoundArguments: two bound positions form the counting node.
func TestMultipleBoundArguments(t *testing.T) {
	f := newRW(t, `
g(A,B,Y) :- base(A,B,Y).
g(A,B,Y) :- move(A,B,A1,B1), g(A1,B1,Y1), undo(Y1,Y).
`, "?- g(x,y,Out).", `
move(x,y,u,v). base(u,v,deep). undo(deep,answer).
base(x,y,shallow).
`)
	plain := plainAnswers(t, f)
	rw := f.extended(t)
	got := evalAnswers(t, f, rw)
	var gotFree, plainFree []string
	for _, g := range got {
		gotFree = append(gotFree, strings.TrimSuffix(g, ",[]"))
	}
	for _, p := range plain {
		parts := strings.SplitN(p, ",", 3)
		plainFree = append(plainFree, parts[2])
	}
	if fmt.Sprint(gotFree) != fmt.Sprint(plainFree) {
		t.Errorf("extended %v, plain %v", gotFree, plainFree)
	}
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(plain) {
		t.Errorf("runtime %v, plain %v", res.Answers, plain)
	}
}

// TestRepeatedVariableInGoal: sg(a,a)-style goals where the bound pattern
// repeats across positions.
func TestRepeatedHeadVariable(t *testing.T) {
	f := newRW(t, `
p(X,X,tag) :- self(X).
p(X,Y,Z) :- up(X,X1), p(X1,Y1,Z1), down(Y1,Y,Z1,Z).
`, "?- p(a,Y,Z).", `
up(a,b). self(b). down(b,q,tag,final).
`)
	plain := plainAnswers(t, f)
	rw := f.extended(t)
	got := evalAnswers(t, f, rw)
	if len(got) != len(plain) {
		t.Errorf("extended %v, plain %v", got, plain)
	}
}

// TestReduceOnClassicRewrite: Algorithm 3 also applies to the classic
// integer rewrite — the index is deleted exactly when nothing increments
// it.
func TestReduceOnClassicRewrite(t *testing.T) {
	// Right-linear: the classic counting rule copies I unchanged.
	f := newRW(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
`, "?- p(a,Y).", "")
	rw, err := rewriteClassic(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	red := Reduce(rw)
	text := red.Program.Format()
	if strings.Contains(text, "succ") {
		t.Errorf("reduced classic program still counts:\n%s", text)
	}
	if !strings.Contains(text, "c_p_bf(a).") {
		t.Errorf("index not deleted:\n%s", text)
	}

	// General rule: the index is incremented, nothing may be deleted.
	f2 := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).", "")
	rw2, err := rewriteClassic(f2.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	red2 := Reduce(rw2)
	if len(red2.Program.Rules) != len(rw2.Program.Rules) {
		t.Errorf("general classic program was reduced:\n%s", red2.Program.Format())
	}
}

// TestRuntimeStatsShape: counters are populated and consistent.
func TestRuntimeStatsShape(t *testing.T) {
	f := newRW(t, sgProgram, "?- sg(a,Y).", example5Facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.CountingNodes != 5 || s.AheadEntries != 6 || s.BackEntries != 1 {
		t.Errorf("graph stats: %+v", s)
	}
	if s.AnswerTuples < len(res.Answers) || s.Moves < int64(s.AnswerTuples) {
		t.Errorf("answer stats inconsistent: %+v", s)
	}
	if s.Solves == 0 || s.Probes == 0 {
		t.Errorf("matcher stats empty: %+v", s)
	}
}

// TestEvalAnswersViaEngineMatchesRuntimeOnDeepSharedVars: a longer
// shared-variable chain exercises entry values through many levels.
func TestDeepSharedVarsAgreement(t *testing.T) {
	var facts strings.Builder
	const n = 12
	for i := 0; i < n; i++ {
		fmt.Fprintf(&facts, "up(u%d,u%d,w%d). ", i, i+1, i%3)
	}
	fmt.Fprintf(&facts, "flat(u%d,d%d). ", n, n)
	for i := n; i > 0; i-- {
		fmt.Fprintf(&facts, "down(d%d,d%d,w%d). ", i, i-1, (i-1)%3)
		fmt.Fprintf(&facts, "down(d%d,x%d,w%d). ", i, i-1, (i+1)%3)
	}
	f := newRW(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1,W), sg(X1,Y1), down(Y1,Y,W).
`, "?- sg(u0,Y).", facts.String())
	plain := plainAnswers(t, f)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var runtimeAns, plainFree []string
	for _, a := range res.Answers {
		runtimeAns = append(runtimeAns, f.bank.Format(a[0]))
	}
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	if fmt.Sprint(runtimeAns) != fmt.Sprint(plainFree) {
		t.Errorf("runtime %v, plain %v", runtimeAns, plainFree)
	}
}
