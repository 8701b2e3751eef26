package lincount

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lincount/internal/counting"
)

// Random-program equivalence fuzzing: generate random *linear programs*
// (not just random data) from the grammar the paper covers — general
// rules, shared variables, bound head variables in the right part,
// right-linear and left-linear rules, one or two recursive predicates —
// plus random databases, and check that every applicable strategy agrees
// with semi-naive evaluation. This is the strongest executable form of
// Theorems 1–3.

type programGen struct {
	r *rand.Rand
}

// rule shapes; weights tuned so every feature appears often.
const (
	shapeGeneral = iota
	shapeShared
	shapeBoundRight
	shapeRightLinear
	shapeLeftLinear
	shapeChainedLeft
	shapeMutual
)

func (g *programGen) genProgram(k int) string {
	var sb strings.Builder
	sb.WriteString("p(X,Y) :- flat(X,Y).\n")
	mutual := false
	for i := 1; i <= k; i++ {
		switch g.r.Intn(7) {
		case shapeGeneral:
			fmt.Fprintf(&sb, "p(X,Y) :- up%d(X,X1), p(X1,Y1), down%d(Y1,Y).\n", i, i)
		case shapeShared:
			fmt.Fprintf(&sb, "p(X,Y) :- up%d(X,X1,W), p(X1,Y1), down%d(Y1,Y,W).\n", i, i)
		case shapeBoundRight:
			fmt.Fprintf(&sb, "p(X,Y) :- up%d(X,X1), p(X1,Y1), down%d(Y1,Y,X).\n", i, i)
		case shapeRightLinear:
			fmt.Fprintf(&sb, "p(X,Y) :- up%d(X,X1), p(X1,Y).\n", i)
		case shapeLeftLinear:
			fmt.Fprintf(&sb, "p(X,Y) :- p(X,Y1), down%d(Y1,Y).\n", i)
		case shapeChainedLeft:
			// Two-literal left part binding X1 transitively.
			fmt.Fprintf(&sb, "p(X,Y) :- up%d(X,M), hop%d(M,X1), p(X1,Y1), down%d(Y1,Y).\n", i, i, i)
		default:
			// One mutual-recursion pair per program is enough.
			if mutual {
				fmt.Fprintf(&sb, "p(X,Y) :- up%d(X,X1), p(X1,Y1), down%d(Y1,Y).\n", i, i)
				continue
			}
			mutual = true
			fmt.Fprintf(&sb, "p(X,Y) :- up%d(X,X1), aux(X1,Y1), down%d(Y1,Y).\n", i, i)
			fmt.Fprintf(&sb, "aux(X,Y) :- hop%d(X,X1), p(X1,Y1), down%d(Y1,Y).\n", i, i)
		}
	}
	return sb.String()
}

// genFacts produces data for every relation the program may mention. The
// relations are deliberately overlapping so different rules interact.
func (g *programGen) genFacts(src string, nodes int, cyclic bool) string {
	var sb strings.Builder
	arc := func() (int, int) {
		a, b := g.r.Intn(nodes), g.r.Intn(nodes)
		if !cyclic && a >= b {
			return -1, -1
		}
		return a, b
	}
	for i := 1; i <= 4; i++ {
		if !strings.Contains(src, fmt.Sprintf("up%d(", i)) &&
			!strings.Contains(src, fmt.Sprintf("down%d(", i)) {
			continue
		}
		for n := 0; n < 2+g.r.Intn(8); n++ {
			if a, b := arc(); a >= 0 {
				if strings.Contains(src, fmt.Sprintf("up%d(X,X1,W)", i)) {
					fmt.Fprintf(&sb, "up%d(n%d,n%d,w%d). ", i, a, b, g.r.Intn(2))
				} else if strings.Contains(src, fmt.Sprintf("up%d(", i)) {
					fmt.Fprintf(&sb, "up%d(n%d,n%d). ", i, a, b)
				}
			}
			if strings.Contains(src, fmt.Sprintf("hop%d(", i)) {
				if a, b := arc(); a >= 0 {
					fmt.Fprintf(&sb, "hop%d(n%d,n%d). ", i, a, b)
				}
			}
			a, b := g.r.Intn(nodes), g.r.Intn(nodes)
			switch {
			case strings.Contains(src, fmt.Sprintf("down%d(Y1,Y,W)", i)):
				fmt.Fprintf(&sb, "down%d(m%d,m%d,w%d). ", i, a, b, g.r.Intn(2))
			case strings.Contains(src, fmt.Sprintf("down%d(Y1,Y,X)", i)):
				fmt.Fprintf(&sb, "down%d(m%d,m%d,n%d). ", i, a, b, g.r.Intn(nodes))
			case strings.Contains(src, fmt.Sprintf("down%d(", i)):
				fmt.Fprintf(&sb, "down%d(m%d,m%d). ", i, a, b)
			}
		}
	}
	for i := 0; i < nodes; i++ {
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&sb, "flat(n%d,m%d). ", i, g.r.Intn(nodes))
		}
	}
	return sb.String()
}

func TestRandomLinearProgramEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz-style test")
	}
	const seeds = 60
	for seed := 0; seed < seeds; seed++ {
		g := &programGen{r: rand.New(rand.NewSource(int64(seed)))}
		src := g.genProgram(1 + g.r.Intn(3))
		cyclic := g.r.Intn(2) == 1
		facts := g.genFacts(src, 7, cyclic)

		p, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		db := NewDatabase(p)
		if err := db.LoadFacts(facts); err != nil {
			t.Fatalf("seed %d: facts: %v", seed, err)
		}
		const goal = "?- p(n0,Y)."
		base, err := Eval(p, db, goal, SemiNaive)
		if err != nil {
			t.Fatalf("seed %d: semi-naive: %v", seed, err)
		}
		want := rows(base)

		strategies := []Strategy{Naive, Magic, MagicSup, QSQ, CountingRuntime, Auto}
		if !cyclic {
			strategies = append(strategies, Counting, CountingReduced, CountingClassic)
		}
		for _, s := range strategies {
			res, err := Eval(p, db, goal, s,
				WithMaxIterations(50_000), WithMaxDerivedFacts(2_000_000))
			if err != nil {
				if errors.Is(err, counting.ErrNotApplicable) {
					continue // e.g. classic on multi-rule programs
				}
				t.Fatalf("seed %d: %v: %v\nprogram:\n%s\nfacts: %s", seed, s, err, src, facts)
			}
			if got := rows(res); got != want {
				t.Errorf("seed %d: %v answers %q, want %q\nprogram:\n%s\nfacts: %s",
					seed, s, got, want, src, facts)
			}
		}
	}
}

// TestRandomNonlinearMagicEquivalence fuzzes the magic rewritings over
// non-linear programs (outside the counting class): quadratic closure,
// rules with two derived literals and interleaved prefixes — the shapes
// that stress supplementary magic's prefix materialization.
func TestRandomNonlinearMagicEquivalence(t *testing.T) {
	shapes := []struct{ src, goal string }{
		{`tc(X,Y) :- e(X,Y).
tc(X,Y) :- tc(X,Z), tc(Z,Y).`, "?- tc(n0,Y)."},
		{`r(X,Y) :- e(X,Y).
r(X,Y) :- r(X,Z), b(Z,W), r(W,Y).`, "?- r(n0,Y)."},
		{`p(X,Y) :- e(X,Y).
p(X,Y) :- q(X,Z), q(Z,Y).
q(X,Y) :- b(X,Y).
q(X,Y) :- p(X,Z), e(Z,Y).`, "?- p(n0,Y)."},
	}
	for si, shape := range shapes {
		for seed := 0; seed < 12; seed++ {
			r := rand.New(rand.NewSource(int64(seed*31 + si)))
			var facts strings.Builder
			n := 5 + r.Intn(4)
			for i := 0; i < 2*n; i++ {
				fmt.Fprintf(&facts, "e(n%d,n%d). ", r.Intn(n), r.Intn(n))
				fmt.Fprintf(&facts, "b(n%d,n%d). ", r.Intn(n), r.Intn(n))
			}
			p := MustParseProgram(shape.src)
			db := NewDatabase(p)
			if err := db.LoadFacts(facts.String()); err != nil {
				t.Fatal(err)
			}
			want := rows(mustEval(t, p, db, shape.goal, SemiNaive))
			for _, s := range []Strategy{Magic, MagicSup, QSQ, Auto} {
				res, err := Eval(p, db, shape.goal, s)
				if err != nil {
					t.Fatalf("shape %d seed %d %v: %v", si, seed, s, err)
				}
				if got := rows(res); got != want {
					t.Errorf("shape %d seed %d: %v answers %q, want %q\nfacts: %s",
						si, seed, s, got, want, facts.String())
				}
			}
		}
	}
}
