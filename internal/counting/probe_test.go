package counting

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lincount/internal/faultinject"
	"lincount/internal/obsv"
)

func probeOf(t *testing.T, src, goal, facts string) LeftGraphProbe {
	t.Helper()
	f := newRW(t, src, goal, facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := ProbeLeftGraphContext(context.Background(), an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return probe
}

// TestProbeShapes: what the probe reports on a layered graph, on acyclic
// graphs where two path shapes meet in a node (a shortcut; a cross arc;
// two rules; two shared values), on a cycle and on a self-loop.
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
	for _, c := range []struct {
		name, src, facts string
		want             LeftGraphProbe
	}{
		{"diamond", sgProgram, "up(a,b). up(a,c). up(b,d). up(c,d).",
			LeftGraphProbe{Acyclic: true, Layered: true, Nodes: 4, Arcs: 4}},
		{"shortcut", sgProgram, "up(a,b). up(b,c). up(a,c).",
			LeftGraphProbe{Acyclic: true, Nodes: 3, Arcs: 3}},
		{"two rules into one node", twoRules, "up1(a,b). up2(a,b).",
			LeftGraphProbe{Acyclic: true, Nodes: 2, Arcs: 2}},
		{"two rules, one each", twoRules, "up1(a,b). up2(b,c).",
			LeftGraphProbe{Acyclic: true, Layered: true, Nodes: 3, Arcs: 2}},
		{"two shared values into one node", sharedVar, "up(a,b,w1). up(a,b,w2).",
			LeftGraphProbe{Acyclic: true, Nodes: 2, Arcs: 2}},
		{"duplicate left solutions are one arc", "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,X1,_), sg(X1,Y1), down(Y1,Y).\n",
			"up(a,b,w1). up(a,b,w2).", LeftGraphProbe{Acyclic: true, Layered: true, Nodes: 2, Arcs: 1}},
		{"cycle", sgProgram, "up(a,b). up(b,c). up(c,a). up(c,b).",
			LeftGraphProbe{Nodes: 3, Arcs: 4, BackArcs: 2}},
		{"self-loop", sgProgram, "up(a,b). up(b,b).",
			LeftGraphProbe{Nodes: 2, Arcs: 2, BackArcs: 1}},
		{"cross arc", sgProgram, "up(a,b). up(a,c). up(c,b).",
			LeftGraphProbe{Acyclic: true, Nodes: 3, Arcs: 3}},
	} {
		if got := probeOf(t, c.src, "?- sg(a,Y).", c.facts); got != c.want {
			t.Errorf("%s: probe %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestRunCarriesOnFromProbe: a runtime that was probed runs phase 2 from
// the counting set the probe built — same answers, same counters, no
// second exploration — and says so in its trace.
func TestRunCarriesOnFromProbe(t *testing.T) {
	f := newRW(t, sgProgram, "?- sg(a,Y).", example5Facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obsv.NewTracer()
	rt, err := NewRuntime(an, f.db, RuntimeOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := rt.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if want := (LeftGraphProbe{Nodes: 5, Arcs: 6, BackArcs: 1}); probe != want {
		t.Errorf("probe %+v, want %+v", probe, want)
	}
	solvesAfterProbe := rt.Stats().Solves
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fmtAnswers(f, res)) != fmt.Sprint(fmtAnswers(f, ref)) || res.Stats != ref.Stats {
		t.Errorf("probed run: %v %+v, fresh run: %v %+v", fmtAnswers(f, res), res.Stats, fmtAnswers(f, ref), ref.Stats)
	}
	if solvesAfterProbe == 0 || solvesAfterProbe >= res.Stats.Solves {
		t.Errorf("solves: %d after the probe, %d after the run", solvesAfterProbe, res.Stats.Solves)
	}
	var spans []string
	for _, e := range tr.Events() {
		if e.Cat == "counting" && e.Phase == obsv.PhaseSpan {
			spans = append(spans, e.Name)
		}
	}
	if got := strings.Join(spans, " "); got != "counting.probe counting.build counting.answer" {
		t.Errorf("spans %q", got)
	}
}

// TestProbeFaultSite: the probe consults its own fault site, and the
// options reach the runtime underneath it.
func TestProbeFaultSite(t *testing.T) {
	f := newRW(t, sgProgram, "?- sg(a,Y).", example5Facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{faultinject.SiteCountingProbe, faultinject.SiteCountingNode} {
		inj := faultinject.New(1)
		inj.FailAt(site, 1)
		if _, err := ProbeLeftGraphContext(context.Background(), an, f.db, RuntimeOptions{Inject: inj}); err == nil {
			t.Errorf("a fault at %s did not reach the probe", site)
		}
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
