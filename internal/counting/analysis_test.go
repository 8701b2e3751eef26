package counting

import (
	"errors"
	"testing"

	"lincount/internal/adorn"
	"lincount/internal/ast"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

func analyze(t *testing.T, src, goal string) (*term.Bank, *Analysis) {
	t.Helper()
	b := term.NewBank(symtab.New())
	res, err := parser.Parse(b, src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(b, goal)
	if err != nil {
		t.Fatal(err)
	}
	a, err := adorn.Adorn(res.Program, q)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	return b, an
}

func analyzeErr(t *testing.T, src, goal string) error {
	t.Helper()
	b := term.NewBank(symtab.New())
	res, err := parser.Parse(b, src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(b, goal)
	if err != nil {
		t.Fatal(err)
	}
	a, err := adorn.Adorn(res.Program, q)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(a)
	return err
}

func names(b *term.Bank, syms []symtab.Sym) []string {
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = b.Symbols().String(s)
	}
	return out
}

func TestAnalyzeSameGeneration(t *testing.T) {
	b, an := analyze(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, "?- sg(a,Y).")
	if len(an.Exit) != 1 || len(an.Rec) != 1 {
		t.Fatalf("exit=%d rec=%d", len(an.Exit), len(an.Rec))
	}
	r := an.Rec[0]
	if len(r.Left) != 1 || len(r.Right) != 1 {
		t.Errorf("L=%v R=%v", r.Left, r.Right)
	}
	lName := b.Symbols().String(r.Rule.Body[r.Left[0]].Pred)
	rName := b.Symbols().String(r.Rule.Body[r.Right[0]].Pred)
	if lName != "up" || rName != "down" {
		t.Errorf("left=%s right=%s", lName, rName)
	}
	if len(r.Shared) != 0 || len(r.BoundInRight) != 0 {
		t.Errorf("Shared=%v BoundInRight=%v", names(b, r.Shared), names(b, r.BoundInRight))
	}
	if r.SkipCounting || r.SkipModified || !r.PushesCounting || !r.PushesModified {
		t.Errorf("flags wrong: %+v", r)
	}
	if an.Classify() != GeneralLinear {
		t.Errorf("class = %v", an.Classify())
	}
}

// TestAnalyzeExample4 checks the C_r and D_r computation of the paper's
// Example 4: rule r1 shares W between left and right part, rule r2 uses the
// bound head variable X in the right part.
func TestAnalyzeExample4(t *testing.T) {
	b, an := analyze(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up1(X,X1,W), p(X1,Y1), down1(Y1,Y,W).
p(X,Y) :- up2(X,X1), p(X1,Y1), down2(Y1,Y,X).
`, "?- p(a,Y).")
	if len(an.Rec) != 2 {
		t.Fatalf("rec rules = %d", len(an.Rec))
	}
	r1, r2 := an.Rec[0], an.Rec[1]
	if got := names(b, r1.Shared); len(got) != 1 || got[0] != "W" {
		t.Errorf("r1 C_r = %v, want [W]", got)
	}
	if len(r1.BoundInRight) != 0 {
		t.Errorf("r1 D_r = %v, want []", names(b, r1.BoundInRight))
	}
	if len(r2.Shared) != 0 {
		t.Errorf("r2 C_r = %v, want []", names(b, r2.Shared))
	}
	if got := names(b, r2.BoundInRight); len(got) != 1 || got[0] != "X" {
		t.Errorf("r2 D_r = %v, want [X]", got)
	}
}

// TestAnalyzeExample6 checks §5's formal left-/right-linear classification.
func TestAnalyzeExample6(t *testing.T) {
	_, an := analyze(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).
`, "?- p(a,Y).")
	if len(an.Rec) != 2 {
		t.Fatalf("rec rules = %d", len(an.Rec))
	}
	rl, ll := an.Rec[0], an.Rec[1]
	if !rl.FormallyRightLinear || rl.FormallyLeftLinear {
		t.Errorf("rule 1 classification: right=%v left=%v", rl.FormallyRightLinear, rl.FormallyLeftLinear)
	}
	if !ll.FormallyLeftLinear || ll.FormallyRightLinear {
		t.Errorf("rule 2 classification: right=%v left=%v", ll.FormallyRightLinear, ll.FormallyLeftLinear)
	}
	if !rl.SkipModified || !rl.PushesModified == false {
		// right-linear: no modified rule, counting rule does not push
		if rl.PushesCounting {
			t.Error("right-linear rule pushes counting path")
		}
	}
	if !ll.SkipCounting {
		t.Error("left-linear rule generates a counting rule")
	}
	if ll.PushesModified {
		t.Error("left-linear rule pushes modified path")
	}
	if an.Classify() != MixedLinearClass {
		t.Errorf("class = %v, want mixed-linear", an.Classify())
	}
}

func TestClassifyPureClasses(t *testing.T) {
	_, right := analyze(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
`, "?- p(a,Y).")
	if right.Classify() != RightLinearClass {
		t.Errorf("class = %v, want right-linear", right.Classify())
	}
	_, left := analyze(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).
`, "?- p(a,Y).")
	if left.Classify() != LeftLinearClass {
		t.Errorf("class = %v, want left-linear", left.Classify())
	}
}

func TestAnalyzeNotLinear(t *testing.T) {
	err := analyzeErr(t, `
tc(X,Y) :- e(X,Y).
tc(X,Y) :- tc(X,Z), tc(Z,Y).
`, "?- tc(a,Y).")
	if !errors.Is(err, ErrNotLinear) {
		t.Errorf("err = %v, want ErrNotLinear", err)
	}
}

// TestAnalyzeRefusesFilteringBoundPattern: a rule with no left part whose
// bound head arguments repeat a variable or hold a constant filters the
// node it stays at, which no counting method applies; with a left part,
// or with distinct variables, the rule is analysed as before.
func TestAnalyzeRefusesFilteringBoundPattern(t *testing.T) {
	for _, rule := range []string{
		"p(X,X,Y) :- p(X,X,Z), down(Z,Y).",
		"p(X,k,Y) :- p(X,k,Z), down(Z,Y).",
	} {
		err := analyzeErr(t, "p(X,W,Y) :- flat(X,W,Y).\n"+rule+"\n", "?- p(a,b,Y).")
		if !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s: err = %v, want ErrNotApplicable", rule, err)
		}
	}
	for _, rule := range []string{
		"p(X,X,Y) :- up(X,X1), p(X1,X1,Z), down(Z,Y).",
		"p(X,W,Y) :- p(X,W,Z), down(Z,Y).",
	} {
		if err := analyzeErr(t, "p(X,W,Y) :- flat(X,W,Y).\n"+rule+"\n", "?- p(a,b,Y)."); err != nil {
			t.Errorf("%s: %v", rule, err)
		}
	}
}

func TestAnalyzeNoBoundArgs(t *testing.T) {
	err := analyzeErr(t, `
p(X,Y) :- e(X,Y).
p(X,Y) :- e(X,Z), p(Z,Y).
`, "?- p(X,Y).")
	if !errors.Is(err, ErrNoBoundArgs) {
		t.Errorf("err = %v, want ErrNoBoundArgs", err)
	}
}

func TestAnalyzeUnboundRecursiveCallDegenerates(t *testing.T) {
	// The recursive call receives no binding (X1 is produced after it),
	// so adornment gives it the all-free pattern p_ff: it leaves the goal
	// clique and the clique's only rule becomes an exit rule over the
	// fully computed p_ff — a graceful degeneration, not an error.
	b, an := analyze(t, `
p(X,Y) :- e(X,Y).
p(X,Y) :- p(X1,Y1), link(Y1,X1), e(X,Y).
`, "?- p(a,Y).")
	if len(an.Rec) != 0 {
		t.Errorf("clique has %d recursive rules, want 0", len(an.Rec))
	}
	foundFF := false
	for _, r := range an.Passthrough {
		if b.Symbols().String(r.Head.Pred) == "p_ff" {
			foundFF = true
		}
	}
	if !foundFF {
		t.Error("p_ff rules not in passthrough")
	}
}

func TestAnalyzeMutualRecursionTwoPredicates(t *testing.T) {
	b, an := analyze(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), q(X1,Y1), down(Y1,Y).
q(X,Y) :- over(X,X1), p(X1,Y1), under(Y1,Y).
`, "?- p(a,Y).")
	if len(an.Clique) != 2 {
		t.Fatalf("clique = %v", an.Clique)
	}
	if len(an.Rec) != 2 || len(an.Exit) != 1 {
		t.Errorf("rec=%d exit=%d", len(an.Rec), len(an.Exit))
	}
	for _, r := range an.Rec {
		if r.SkipCounting || r.SkipModified {
			t.Errorf("mutual-recursion rule wrongly skipped: %s", ast.FormatRule(b, r.Rule))
		}
	}
}

func TestAnalyzePassthroughRules(t *testing.T) {
	b, an := analyze(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y1), down(Y1,Y).
flat(X,Y) :- rawflat(X,Y).
`, "?- p(a,Y).")
	if len(an.Passthrough) != 1 {
		t.Fatalf("passthrough = %d", len(an.Passthrough))
	}
	if got := b.Symbols().String(an.Passthrough[0].Head.Pred); got != "flat_bf" {
		t.Errorf("passthrough rule head = %s", got)
	}
}

func TestAnalyzeFloatingLiteralGoesRight(t *testing.T) {
	// q(Z) shares no variable with the bound side; it lands in the right
	// part so the counting set stays lean.
	b, an := analyze(t, `
p(X,Y) :- e(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y1), down(Y1,Y), q(Z).
`, "?- p(a,Y).")
	r := an.Rec[0]
	foundQ := false
	for _, ri := range r.Right {
		if b.Symbols().String(r.Rule.Body[ri].Pred) == "q" {
			foundQ = true
		}
	}
	if !foundQ {
		t.Errorf("floating literal q not in right part: L=%v R=%v", r.Left, r.Right)
	}
}

func TestAnalyzeChainedLeftPart(t *testing.T) {
	// The left part is a two-literal chain binding X1 transitively.
	_, an := analyze(t, `
p(X,Y) :- e(X,Y).
p(X,Y) :- hop(X,M), hop2(M,X1), p(X1,Y1), down(Y1,Y).
`, "?- p(a,Y).")
	r := an.Rec[0]
	if len(r.Left) != 2 {
		t.Errorf("left part = %v, want both hop literals", r.Left)
	}
}

func TestAnalyzeFreeHeadVarFromLeftPartIsShared(t *testing.T) {
	// The free head variable Z is produced by the left part; it must be
	// recorded in C_r so the answer phase can recover it.
	b, an := analyze(t, `
p(X,Y,Z) :- e(X,Y,Z).
p(X,Y,Z) :- up(X,X1,Z), p(X1,Y1,Z1), down(Y1,Y).
`, "?- p(a,Y,Z).")
	r := an.Rec[0]
	if got := names(b, r.Shared); len(got) != 1 || got[0] != "Z" {
		t.Errorf("C_r = %v, want [Z]", got)
	}
}
