package counting

import (
	"strings"
	"testing"

	"lincount/internal/database"
	"lincount/internal/term"
	"lincount/internal/workload"
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

// TestExplainWalksActualArcs: where answer tuples are shared by a class of
// nodes, a witness still walks the left graph — on a diamond-rich DAG
// with shortcuts, on a layered prefix that feeds a cycle, and along
// right-linear chains whose steps keep answers: every undo step lands on
// a predecessor entry of the previous step's node, every apply step stays
// put, and the last step is at the source.
func TestExplainWalksActualArcs(t *testing.T) {
	rightLinear := `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y).
`
	prefix := workload.Grid(3, 3) + `up(u_3_0,c0). up(u_3_1,c0). up(u_3_2,c0). up(c0,c1). up(c1,c2). up(c2,c0).
flat(c0,e12). flat(c1,e9).
down(e12,e11). down(e11,e10). down(e10,e9). down(e9,e8). down(e8,e7). down(e7,e6).
down(e6,e5). down(e5,e4). down(e4,e3). down(e3,e2). down(e2,e1). down(e1,e0).
`
	moves := 0
	for _, c := range []struct{ name, src, facts string }{
		{"diamonds with shortcuts", sgProgram, workload.Grid(5, 4) + "up(u_0_0,u_2_1). up(u_1_1,u_3_2).\n"},
		{"layered prefix into a cycle", sgProgram, prefix},
		{"right-linear prefix into a cycle", rightLinear, prefix + "flat(u_2_1,z). flat(u_3_2,z2).\n"},
	} {
		f, rt, res := runWithProv(t, c.src, "?- sg(u_0_0,Y).", c.facts)
		if len(res.Answers) == 0 {
			t.Fatalf("%s: no answers", c.name)
		}
		byName := map[string]int32{}
		for id := range rt.nodes {
			byName[rt.formatNode(int32(id))] = int32(id)
		}
		isPred := func(of, id int32) bool {
			n := &rt.nodes[of]
			for _, e := range append(append([]entry(nil), n.ahead...), n.back...) {
				if e.rule >= 0 && e.node == id {
					return true
				}
			}
			return false
		}
		for _, ans := range res.Answers {
			d, err := rt.Explain(ans)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			prev := int32(-1)
			for i, s := range d.Steps {
				id, ok := byName[s.Node]
				switch {
				case !ok:
					t.Errorf("%s: step %d at unknown node %s", c.name, i+1, s.Node)
				case (s.Kind == StepExit) != (i == 0):
					t.Errorf("%s: step %d is %v", c.name, i+1, s.Kind)
				case s.Kind == StepMove && !isPred(prev, id):
					t.Errorf("%s: step %d undoes to %s, not a predecessor of the previous node:\n%s", c.name, i+1, s.Node, d.Format(f.bank))
				case s.Kind == StepSame && id != prev:
					t.Errorf("%s: step %d applies at %s, having been at another node", c.name, i+1, s.Node)
				}
				if s.Kind == StepMove {
					moves++
				}
				prev = id
			}
			if prev != 0 {
				t.Errorf("%s: the witness ends at %s, not at the source:\n%s", c.name, d.Steps[len(d.Steps)-1].Node, d.Format(f.bank))
			}
		}
	}
	if moves == 0 {
		t.Error("no witness undoes a step: the test checks nothing")
	}
}
