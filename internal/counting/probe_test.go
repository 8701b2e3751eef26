package counting

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lincount/internal/faultinject"
)

// shapeOf runs the query over facts: whether the left graph the runtime
// built from the binding is acyclic (it entered no back arc), and how
// many answer classes it keyed its tuples by.
func shapeOf(t *testing.T, src, goal, facts string) (acyclic bool, classes int) {
	t.Helper()
	f := newRW(t, src, goal, facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, c := range rt.class {
		seen[c] = true
	}
	return res.Stats.BackEntries == 0, len(seen)
}

// TestProbeShapes: whether the runtime's left graph is acyclic, and how
// it classes the nodes, on a chain, on a layered graph, on acyclic graphs
// where two path shapes meet in a node (a shortcut; a cross arc; two
// rules; two shared values), on a cycle, on a self-loop and beside a
// cycle the binding does not reach; a rule that keeps answers puts a
// whole chain in the source's class, and a bound head variable in the
// right part (D_r ≠ ∅) gives every node a class of its own.
func TestProbeShapes(t *testing.T) {
	twoRules := `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up1(X,X1), sg(X1,Y1), down1(Y1,Y).
sg(X,Y) :- up2(X,X1), sg(X1,Y1), down2(Y1,Y).
`
	sharedVar := `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1,W), sg(X1,Y1), down(Y1,Y,W).
`
	rightLinear := `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y).
`
	boundRight := `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y,X).
`
	for _, c := range []struct {
		name, src, facts string
		acyclic          bool
		classes          int
	}{
		{"chain", sgProgram, "up(a,b). up(b,c).", true, 3},
		{"two-node cycle", sgProgram, "up(a,b). up(b,a).", false, 2},
		{"a cycle the binding does not reach", sgProgram, "up(a,b). up(z,w). up(w,z).", true, 2},
		{"diamond", sgProgram, "up(a,b). up(a,c). up(b,d). up(c,d).", true, 3},
		{"shortcut", sgProgram, "up(a,b). up(b,c). up(a,c).", true, 3},
		{"two rules into one node", twoRules, "up1(a,b). up2(a,b).", true, 2},
		{"two rules, one each", twoRules, "up1(a,b). up2(b,c).", true, 3},
		{"two shared values into one node", sharedVar, "up(a,b,w1). up(a,b,w2).", true, 2},
		{"duplicate left solutions are one arc", "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,X1,_), sg(X1,Y1), down(Y1,Y).\n",
			"up(a,b,w1). up(a,b,w2).", true, 2},
		{"cycle", sgProgram, "up(a,b). up(b,c). up(c,a). up(c,b).", false, 3},
		{"self-loop", sgProgram, "up(a,b). up(b,b).", false, 2},
		{"cross arc", sgProgram, "up(a,b). up(a,c). up(c,b).", true, 3},
		{"right-linear diamond", rightLinear, "up(a,b). up(a,c). up(b,d). up(c,d).", true, 1},
		{"right-linear cycle", rightLinear, "up(a,b). up(b,c). up(c,b). up(c,d).", false, 2},
		{"bound head variable in the right part", boundRight, "up(a,b). up(a,c). up(b,d). up(c,d).", true, 4},
	} {
		acyclic, classes := shapeOf(t, c.src, "?- sg(a,Y).", c.facts)
		if acyclic != c.acyclic || classes != c.classes {
			t.Errorf("%s: acyclic %v with %d classes, want %v with %d", c.name, acyclic, classes, c.acyclic, c.classes)
		}
	}
}

// TestProbeFaultSite: the runtime's left-graph exploration consults the
// node fault site its options arm.
func TestProbeFaultSite(t *testing.T) {
	f := newRW(t, sgProgram, "?- sg(a,Y).", example5Facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.FailAt(faultinject.SiteCountingNode, 1)
	rt, err := NewRuntimeContext(context.Background(), an, f.db, RuntimeOptions{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("a fault at %s did not reach the exploration: %v", faultinject.SiteCountingNode, err)
	}
}

// TestRuntimeWideBatches: frontiers and worklists wider than one solver
// batch (a fan of 3000 nodes, each with its own exit and right-part step)
// agree with bottom-up evaluation.
func TestRuntimeWideBatches(t *testing.T) {
	var facts strings.Builder
	const fan = 3000
	for i := 0; i < fan; i++ {
		fmt.Fprintf(&facts, "up(a,n%d). flat(n%d,m%d). down(m%d,e%d). ", i, i, i, i, i%7)
	}
	f, res := runRuntime(t, sgProgram, "?- sg(a,Y).", facts.String())
	// One exit tuple per fan node; their moves land on seven tuples at a.
	if st := res.Stats; st.CountingNodes != fan+1 || st.AnswerTuples != fan+7 || st.Moves != 2*fan {
		t.Errorf("nodes %d, tuples %d, moves %d; want %d, %d, %d",
			st.CountingNodes, st.AnswerTuples, st.Moves, fan+1, fan+7, 2*fan)
	}
	if got := fmt.Sprint(fmtAnswers(f, res)); got != "[e0 e1 e2 e3 e4 e5 e6]" {
		t.Errorf("answers %s", got)
	}
}
