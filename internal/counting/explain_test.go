package counting

import (
	"strings"
	"testing"

	"lincount/internal/database"
	"lincount/internal/term"
)

func runWithProv(t *testing.T, src, goal, facts string) (*rwFixture, *Runtime, *RunResult) {
	t.Helper()
	f := newRW(t, src, goal, facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	rt, res, err := RunWithProvenance(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f, rt, res
}

func sgAnswer(f *rwFixture, name string) database.Tuple {
	return database.Tuple{term.Symbol(f.bank.Symbols().Intern(name))}
}

// TestExplainExample5 reconstructs the witness for answer h of Example 5:
// an exit at node e followed by two down-steps (undoing up(b,e) and
// up(a,b)).
func TestExplainExample5(t *testing.T) {
	f, rt, res := runWithProv(t, sgProgram, "?- sg(a,Y).", example5Facts)
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %d", len(res.Answers))
	}
	d, err := rt.Explain(sgAnswer(f, "h"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 3 {
		t.Fatalf("witness for h has %d steps, want 3:\n%s", len(d.Steps), d.Format(f.bank))
	}
	if d.Steps[0].Kind != StepExit || d.Steps[0].Node != "(e)" {
		t.Errorf("step 1 = %+v, want exit at (e)", d.Steps[0])
	}
	if d.Steps[1].Kind != StepMove || d.Steps[2].Kind != StepMove {
		t.Errorf("steps 2-3 should be moves: %+v", d.Steps[1:])
	}
	if d.Steps[2].Node != "(a)" {
		t.Errorf("final step lands at %s, want (a)", d.Steps[2].Node)
	}
	text := d.Format(f.bank)
	if !strings.Contains(text, "exit") || !strings.Contains(text, "undo") {
		t.Errorf("formatted witness:\n%s", text)
	}
}

// TestExplainCycleAnswer: the witness for l must traverse the d-e cycle —
// it has 7 steps (exit + 6 downs).
func TestExplainCycleAnswer(t *testing.T) {
	f, rt, _ := runWithProv(t, sgProgram, "?- sg(a,Y).", example5Facts)
	d, err := rt.Explain(sgAnswer(f, "l"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 7 {
		t.Fatalf("witness for l has %d steps, want 7:\n%s", len(d.Steps), d.Format(f.bank))
	}
	// The walk must visit node d twice (once via the cycle).
	visits := 0
	for _, s := range d.Steps {
		if s.Node == "(d)" {
			visits++
		}
	}
	if visits != 2 {
		t.Errorf("node d visited %d times in the witness, want 2:\n%s", visits, d.Format(f.bank))
	}
}

// TestExplainLeftLinear: witnesses of left-linear rules are StepSame.
func TestExplainLeftLinear(t *testing.T) {
	f, rt, res := runWithProv(t, `
p(X,Y) :- flat(X,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).
`, "?- p(a,Y).", "flat(a,f0). down(f0,f1). down(f1,f2).")
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %v", res.Answers)
	}
	d, err := rt.Explain(sgAnswer(f, "f2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 3 {
		t.Fatalf("steps = %d", len(d.Steps))
	}
	if d.Steps[1].Kind != StepSame || d.Steps[2].Kind != StepSame {
		t.Errorf("left-linear steps not StepSame: %+v", d.Steps)
	}
}

func TestExplainUnknownAnswer(t *testing.T) {
	f, rt, _ := runWithProv(t, sgProgram, "?- sg(a,Y).", example5Facts)
	if _, err := rt.Explain(sgAnswer(f, "nosuch")); err == nil {
		t.Error("Explain accepted a non-answer")
	}
}

func TestExplainRequiresProvenance(t *testing.T) {
	f := newRW(t, sgProgram, "?- sg(a,Y).", example5Facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Explain(sgAnswer(f, "h")); err == nil {
		t.Error("Explain without provenance recording did not error")
	}
}

func TestExplainAllCoversEveryAnswer(t *testing.T) {
	_, rt, res := runWithProv(t, sgProgram, "?- sg(a,Y).", example5Facts)
	if len(res.Answers) == 0 {
		t.Fatal("no answers to explain")
	}
	for i, a := range res.Answers {
		d, err := rt.Explain(a)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if txt := d.Format(rt.bank); !strings.Contains(txt, "exit") {
			t.Errorf("witness %d has no exit step:\n%s", i, txt)
		}
	}
}
