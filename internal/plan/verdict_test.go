package plan

import (
	"errors"
	"strings"
	"testing"

	"lincount/internal/counting"
	"lincount/internal/database"
	"lincount/internal/symtab"
)

func verdictOf(p counting.LeftGraphProbe) func() *Verdict {
	return func() *Verdict { return &Verdict{LeftGraphProbe: p} }
}

func strategiesOf(choices []Choice) string {
	names := make([]string, len(choices))
	for i, c := range choices {
		names[i] = c.Strategy.String()
	}
	return strings.Join(names, " ")
}

// TestRankWithVerdict: what each kind of verdict does to the ranking of a
// program without a reduced rewrite, and that a program with one never
// asks for it.
func TestRankWithVerdict(t *testing.T) {
	stats := func(symtab.Sym) int64 { return 1000 }
	sg := shared(t, sgSrc, "?- sg(a,Y).")
	for _, c := range []struct {
		name  string
		probe counting.LeftGraphProbe
		want  string
		cost  float64 // of the head
	}{
		{"layered", counting.LeftGraphProbe{Acyclic: true, Layered: true, Nodes: 210, Arcs: 380},
			"counting counting-runtime magic semi-naive", 380 + 210 + 380},
		{"acyclic with several shapes per node", counting.LeftGraphProbe{Acyclic: true, Nodes: 65, Arcs: 96},
			"counting-runtime magic semi-naive", 96 + 65 + 96 + 64},
		{"cyclic", counting.LeftGraphProbe{Nodes: 61, Arcs: 68, BackArcs: 8},
			"counting-runtime magic semi-naive", 68 + 61 + 68 + 60},
		{"nothing reachable", counting.LeftGraphProbe{Acyclic: true, Layered: true, Nodes: 1},
			"counting counting-runtime magic semi-naive", 1},
	} {
		choices := RankWith(sg, stats, verdictOf(c.probe))
		if got := strategiesOf(choices); got != c.want || choices[0].Cost != c.cost {
			t.Errorf("%s: ranked %s with head cost %v, want %s with %v", c.name, got, choices[0].Cost, c.want, c.cost)
		}
		for i := 1; i < len(choices); i++ {
			if choices[i].Cost < choices[i-1].Cost {
				t.Errorf("%s: costs not ascending: %+v", c.name, choices)
			}
		}
		if !strings.Contains(choices[0].Reason, "reachable left graph") {
			t.Errorf("%s: the head's reason does not name the probe: %q", c.name, choices[0].Reason)
		}
	}
	if r := RankWith(sg, stats, verdictOf(counting.LeftGraphProbe{Acyclic: true, Layered: true, Nodes: 210, Arcs: 380}))[0].Reason; !strings.Contains(r, "reachable left graph acyclic: 210 nodes, 380 arcs") {
		t.Errorf("reason %q", r)
	}

	// No verdict on offer, or none obtained: the data-blind ranking.
	blind := strategiesOf(Rank(sg, stats))
	if got := strategiesOf(RankWith(sg, stats, func() *Verdict { return nil })); got != blind || blind != "counting-runtime magic semi-naive" {
		t.Errorf("without a verdict: %s, data-blind %s", got, blind)
	}

	// A reduced rewrite heads the ranking whatever the data: not asked.
	rl := shared(t, "tc(X,Y) :- arc(X,Y).\ntc(X,Y) :- arc(X,Z), tc(Z,Y).\n", "?- tc(a,Y).")
	asked := false
	choices := RankWith(rl, stats, func() *Verdict { asked = true; return nil })
	if asked || choices[0].Strategy != CountingReduced {
		t.Errorf("right-linear: asked for a verdict = %v, head %s", asked, choices[0].Strategy)
	}
	// Outside the counting class there is no left graph to ask about.
	nl := shared(t, "tc(X,Y) :- arc(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).\n", "?- tc(a,Y).")
	if RankWith(nl, stats, func() *Verdict { asked = true; return nil }); asked {
		t.Error("nonlinear: asked for a verdict")
	}
}

// TestVerdictCache: one probe per state of the relations the left parts
// read — through lower strata too — and none for a change elsewhere.
func TestVerdictCache(t *testing.T) {
	sh := shared(t, `sg(X,Y) :- flat(X,Y).
sg(X,Y) :- parent(X,X1), sg(X1,Y1), down(Y1,Y).
parent(X,Y) :- mother(X,Y).
parent(X,Y) :- father(X,Y).
`, "?- sg(a,Y).")
	db := database.New(sh.Program().Bank)
	load := func(facts string) {
		t.Helper()
		if err := db.LoadText(facts); err != nil {
			t.Fatal(err)
		}
	}
	load("mother(a,b). father(b,c). flat(c,f). down(f,g).")
	probes := 0
	probe := func() (counting.LeftGraphProbe, error) {
		probes++
		return counting.LeftGraphProbe{Acyclic: true, Layered: true, Nodes: 2 + probes}, nil
	}
	verdict := func(on *database.Database, wantHit bool, wantProbes int) *Verdict {
		t.Helper()
		v, hit, err := sh.Verdict(on, probe)
		if err != nil || hit != wantHit || probes != wantProbes {
			t.Fatalf("verdict: err %v, hit %v (want %v), %d probes (want %d)", err, hit, wantHit, probes, wantProbes)
		}
		return v
	}
	v1 := verdict(db, false, 1)
	if verdict(db, true, 1) != v1 {
		t.Error("a hit must return the cached verdict")
	}
	load("down(g,h). flat(b,f).")
	verdict(db, true, 1)
	load("father(c,d).") // read by the left part through parent
	v2 := verdict(db, false, 2)
	if v2.Nodes != 4 {
		t.Errorf("the new verdict holds the new probe: %+v", v2.LeftGraphProbe)
	}

	fork := db.Fork()
	verdict(fork, true, 2)
	if _, err := fork.Assert(sh.Program().Bank.Symbols().Intern("down"), database.Tuple{0, 0}); err != nil {
		t.Fatal(err)
	}
	verdict(fork, true, 2)
	if err := fork.LoadText("mother(d,a)."); err != nil {
		t.Fatal(err)
	}
	verdict(fork, false, 3)
	verdict(db, false, 4) // one slot: the parent's verdict was replaced, not corrupted

	// A failed probe caches nothing and costs the next caller a probe.
	load("mother(x,y).")
	boom := errors.New("boom")
	if _, _, err := sh.Verdict(db, func() (counting.LeftGraphProbe, error) { return counting.LeftGraphProbe{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	verdict(db, false, 5)

	// No database: the program's own facts are the only data, one probe.
	verdict(nil, false, 6)
	verdict(nil, true, 6)
}
