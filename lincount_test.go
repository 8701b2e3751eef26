package lincount

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lincount/internal/counting"
)

const sgSrc = `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`

const sgFacts = `
up(a,b). up(b,c). up(a,d). up(z,zz).
flat(c,c2). flat(d,d2). flat(b,b2). flat(zz,zy).
down(c2,x1). down(x1,x2). down(b2,x3). down(d2,x4). down(x4,x5).
`

func mustEval(t *testing.T, p *Program, db *Database, q string, s Strategy) *Result {
	t.Helper()
	res, err := Eval(p, db, q, s)
	if err != nil {
		t.Fatalf("Eval(%v): %v", s, err)
	}
	return res
}

func rows(res *Result) string {
	parts := make([]string, len(res.Answers))
	for i, r := range res.Answers {
		parts[i] = strings.Join(r, ",")
	}
	return strings.Join(parts, " | ")
}

func TestAllStrategiesAgreeOnSameGeneration(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts(sgFacts); err != nil {
		t.Fatal(err)
	}
	want := rows(mustEval(t, p, db, "?- sg(a,Y).", SemiNaive))
	if want == "" {
		t.Fatal("no answers at all")
	}
	for _, s := range []Strategy{Naive, Magic, MagicSup, QSQ, CountingClassic, Counting, CountingRuntime, Auto} {
		got := rows(mustEval(t, p, db, "?- sg(a,Y).", s))
		if got != want {
			t.Errorf("%v answers = %q, want %q", s, got, want)
		}
	}
}

func TestQSQStrategy(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts(sgFacts); err != nil {
		t.Fatal(err)
	}
	res := mustEval(t, p, db, "?- sg(a,Y).", QSQ)
	if res.Strategy != QSQ {
		t.Errorf("strategy = %v", res.Strategy)
	}
	// The subquery set plays the magic set's role.
	magicRes := mustEval(t, p, db, "?- sg(a,Y).", Magic)
	if res.Stats.CountingNodes != magicRes.Stats.CountingNodes {
		t.Errorf("QSQ input set %d != magic set %d",
			res.Stats.CountingNodes, magicRes.Stats.CountingNodes)
	}
}

// A general-linear program has no reduced rewrite, so Auto picks the
// runtime, whether the left graph reachable from the binding is acyclic
// or not.
func TestAutoResolvesToRuntimeForGeneralLinear(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts(sgFacts); err != nil {
		t.Fatal(err)
	}
	if res := mustEval(t, p, db, "?- sg(a,Y).", Auto); res.Strategy != CountingRuntime {
		t.Errorf("auto picked %v on acyclic data, want counting-runtime", res.Strategy)
	}
	if err := db.LoadFacts("up(c,a)."); err != nil {
		t.Fatal(err)
	}
	if res := mustEval(t, p, db, "?- sg(a,Y).", Auto); res.Strategy != CountingRuntime {
		t.Errorf("auto picked %v on cyclic data, want counting-runtime", res.Strategy)
	}
}

func TestAutoResolvesToReducedForMixedLinear(t *testing.T) {
	p := MustParseProgram(`
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).
`)
	db := NewDatabase(p)
	if err := db.LoadFacts("up(a,b). flat(b,f). down(f,g)."); err != nil {
		t.Fatal(err)
	}
	res := mustEval(t, p, db, "?- p(a,Y).", Auto)
	if res.Strategy != CountingReduced {
		t.Errorf("auto picked %v, want counting-reduced", res.Strategy)
	}
	if rows(res) != "a,f | a,g" {
		t.Errorf("answers = %q", rows(res))
	}
}

func TestAutoFallsBackToMagicForNonLinear(t *testing.T) {
	p := MustParseProgram(`
tc(X,Y) :- e(X,Y).
tc(X,Y) :- tc(X,Z), tc(Z,Y).
`)
	db := NewDatabase(p)
	if err := db.LoadFacts("e(a,b). e(b,c)."); err != nil {
		t.Fatal(err)
	}
	res := mustEval(t, p, db, "?- tc(a,Y).", Auto)
	if res.Strategy != Magic {
		t.Errorf("auto picked %v, want magic", res.Strategy)
	}
	if rows(res) != "a,b | a,c" {
		t.Errorf("answers = %q", rows(res))
	}
}

func TestAutoFallsBackToSemiNaiveWithoutBindings(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts("flat(a,b)."); err != nil {
		t.Fatal(err)
	}
	res := mustEval(t, p, db, "?- sg(X,Y).", Auto)
	if res.Strategy != SemiNaive {
		t.Errorf("auto picked %v, want semi-naive", res.Strategy)
	}
}

func TestCyclicDataStrategies(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts(`
up(a,b). up(b,c). up(c,a).
flat(b,f). down(f,g). down(g,h). down(h,i). down(i,j).
`); err != nil {
		t.Fatal(err)
	}
	want := rows(mustEval(t, p, db, "?- sg(a,Y).", SemiNaive))
	got := rows(mustEval(t, p, db, "?- sg(a,Y).", CountingRuntime))
	if got != want {
		t.Errorf("runtime %q, semi-naive %q", got, want)
	}
	// Algorithm 1 programs are unsafe on cyclic data: the budget guard
	// reports it rather than diverging.
	_, err := Eval(p, db, "?- sg(a,Y).", Counting, WithMaxDerivedFacts(5000))
	if !errors.Is(err, ErrResourceLimit) {
		t.Errorf("Counting on cyclic data: err = %v, want ErrResourceLimit", err)
	}
}

func TestExplicitStrategyErrors(t *testing.T) {
	p := MustParseProgram(`
tc(X,Y) :- e(X,Y).
tc(X,Y) :- tc(X,Z), tc(Z,Y).
`)
	db := NewDatabase(p)
	if err := db.LoadFacts("e(a,b)."); err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(p, db, "?- tc(a,Y).", Counting); !errors.Is(err, counting.ErrNotLinear) {
		t.Errorf("Counting on non-linear: %v", err)
	}
	if _, err := Eval(p, db, "?- tc(a,Y).", CountingClassic); err == nil {
		t.Error("CountingClassic on non-linear succeeded")
	}
}

func TestQueryOnBasePredicate(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts("up(a,b). up(a,c)."); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{SemiNaive, Magic, Counting, CountingRuntime, Auto} {
		res := mustEval(t, p, db, "?- up(a,Y).", s)
		if rows(res) != "a,b | a,c" {
			t.Errorf("%v: %q", s, rows(res))
		}
	}
}

func TestAssertAndFactCount(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.Assert("up", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("level", "a", 3); err != nil {
		t.Fatal(err)
	}
	if db.FactCount() != 2 {
		t.Errorf("FactCount = %d", db.FactCount())
	}
	if err := db.Assert("bad", 1.5); err == nil {
		t.Error("float argument accepted")
	}
}

func TestWrongDatabaseRejected(t *testing.T) {
	p1 := MustParseProgram(sgSrc)
	p2 := MustParseProgram(sgSrc)
	db := NewDatabase(p1)
	if _, err := Eval(p2, db, "?- sg(a,Y).", Auto); !errors.Is(err, ErrWrongDatabase) {
		t.Errorf("err = %v", err)
	}
}

func TestRewriteTexts(t *testing.T) {
	p := MustParseProgram(sgSrc)
	for _, c := range []struct {
		s    Strategy
		want string
	}{
		{Magic, "m_sg_bf"},
		{CountingClassic, "succ(I,I1)"},
		{Counting, "[e(r1,[])|L]"},
		{CountingRuntime, "cycle_"},
	} {
		prog, goal, err := Rewrite(p, "?- sg(a,Y).", c.s)
		if err != nil {
			t.Errorf("Rewrite(%v): %v", c.s, err)
			continue
		}
		if !strings.Contains(prog, c.want) {
			t.Errorf("Rewrite(%v) missing %q:\n%s", c.s, c.want, prog)
		}
		if goal == "" {
			t.Errorf("Rewrite(%v) returned empty goal", c.s)
		}
	}
}

func TestStatsReflectMethodDifferences(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	// A deep relevant chain plus two chains unreachable from the query
	// constant: the counting (and magic) strategies skip them, plain
	// bottom-up does not.
	var facts strings.Builder
	const n = 40
	for i := 0; i < n; i++ {
		fmt.Fprintf(&facts, "up(u%d,u%d). down(d%d,d%d). ", i, i+1, i, i+1)
		fmt.Fprintf(&facts, "up(v%d,v%d). up(w%d,w%d). ", i, i+1, i, i+1)
	}
	fmt.Fprintf(&facts, "flat(u%d,d0). flat(v%d,d0). flat(w%d,d0).", n, n, n)
	if err := db.LoadFacts(facts.String()); err != nil {
		t.Fatal(err)
	}
	naive := mustEval(t, p, db, "?- sg(u0,Y).", Naive)
	semi := mustEval(t, p, db, "?- sg(u0,Y).", SemiNaive)
	cnt := mustEval(t, p, db, "?- sg(u0,Y).", Counting)
	if rows(naive) != rows(cnt) || rows(semi) != rows(cnt) {
		t.Fatal("answers disagree")
	}
	if naive.Stats.Inferences <= semi.Stats.Inferences {
		t.Errorf("naive inferences %d <= semi-naive %d", naive.Stats.Inferences, semi.Stats.Inferences)
	}
	if cnt.Stats.DerivedFacts >= semi.Stats.DerivedFacts {
		t.Errorf("counting derived %d >= semi-naive %d (no focusing)",
			cnt.Stats.DerivedFacts, semi.Stats.DerivedFacts)
	}
	if cnt.Stats.CountingNodes == 0 || cnt.Stats.AnswerTuples == 0 {
		t.Errorf("counting stats empty: %+v", cnt.Stats)
	}
}

// TestParseStrategyRoundTrip: every strategy's name parses back to it,
// and a name no strategy has — a made-up one, or that of the removed
// hybrid of magic sets and counting ([16]) — is an unknown-strategy
// error.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range append(Strategies(), Auto) {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v failed: %v, %v", s, got, err)
		}
	}
	for _, name := range []string{"bogus", Magic.String() + "-" + Counting.String()} {
		if _, err := ParseStrategy(name); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Errorf("ParseStrategy(%q): %v, want an unknown-strategy error", name, err)
		}
	}
}

func TestExplainWitnesses(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts(`
up(a,b). up(b,c). flat(c,f0). down(f0,f1). down(f1,f2).
`); err != nil {
		t.Fatal(err)
	}
	exps, err := Explain(p, db, "?- sg(a,Y).")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 {
		t.Fatalf("explanations = %d", len(exps))
	}
	if strings.Join(exps[0].Answer, ",") != "a,f2" {
		t.Errorf("answer = %v", exps[0].Answer)
	}
	// exit + 2 undo steps.
	if got := strings.Count(exps[0].Witness, "\n"); got != 3 {
		t.Errorf("witness has %d lines:\n%s", got, exps[0].Witness)
	}
	if !strings.Contains(exps[0].Witness, "exit") {
		t.Errorf("witness:\n%s", exps[0].Witness)
	}
	// Non-linear programs cannot be explained.
	nl := MustParseProgram("tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).\n")
	dbn := NewDatabase(nl)
	if err := dbn.LoadFacts("e(a,b)."); err != nil {
		t.Fatal(err)
	}
	if _, err := Explain(nl, dbn, "?- tc(a,Y)."); err == nil {
		t.Error("Explain accepted a non-linear program")
	}
}

func TestMagicSupStats(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts(sgFacts); err != nil {
		t.Fatal(err)
	}
	plain := mustEval(t, p, db, "?- sg(a,Y).", Magic)
	sup := mustEval(t, p, db, "?- sg(a,Y).", MagicSup)
	if rows(plain) != rows(sup) {
		t.Fatalf("answers differ: %q vs %q", rows(plain), rows(sup))
	}
	if !strings.Contains(sup.Rewritten, "sup_") {
		t.Errorf("magic-sup rewrite has no sup predicates:\n%s", sup.Rewritten)
	}
}

// TestWithTraceStreamsEvents: the tracer's "component" spans name each
// stratum's predicates and its "iteration" spans carry the round's delta
// and the running total of derived facts.
func TestWithTraceStreamsEvents(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts("up(a,b). flat(b,f). down(f,g)."); err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	if _, err := Eval(p, db, "?- sg(a,Y).", Magic, WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	var components, iterations int
	var lastTotal, lastDelta int64 = 0, -1
	for _, e := range tr.Events() {
		switch {
		case strings.HasPrefix(e.Name, "component "):
			components++
			if strings.TrimPrefix(e.Name, "component ") == "" {
				t.Error("component span without predicates")
			}
		case e.Name == "iteration":
			iterations++
			for _, a := range e.Args {
				switch a.Key {
				case "total":
					if a.Val < lastTotal {
						t.Error("total decreased")
					}
					lastTotal = a.Val
				case "delta":
					lastDelta = a.Val
				}
			}
		}
	}
	if components < 2 || iterations < 2 {
		t.Errorf("components=%d iterations=%d: trace too sparse", components, iterations)
	}
	if lastDelta != 0 {
		t.Errorf("final iteration delta = %d, want 0", lastDelta)
	}
}

func TestPlan(t *testing.T) {
	p := MustParseProgram(sgSrc)
	db := NewDatabase(p)
	if err := db.LoadFacts("up(a,b). flat(b,f). down(f,g)."); err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(p, db, "?- sg(a,Y).", SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "semi-naive fixpoint") || !strings.Contains(plan, "Δsg/") {
		t.Errorf("plan:\n%s", plan)
	}
	cplan, err := Plan(p, db, "?- sg(a,Y).", Counting)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cplan, "c_sg_bf") {
		t.Errorf("counting plan:\n%s", cplan)
	}
	if _, err := Plan(p, db, "?- sg(a,Y).", CountingRuntime); err == nil {
		t.Error("runtime plan should not be available")
	}
}

func TestProgramLint(t *testing.T) {
	p := MustParseProgram("p(X,Y) :- q(X).\n")
	findings, hasErrors := p.Lint()
	if !hasErrors {
		t.Error("unsafe rule not reported as error")
	}
	joined := strings.Join(findings, "\n")
	if !strings.Contains(joined, "head variable Y") {
		t.Errorf("findings: %v", findings)
	}
	clean := MustParseProgram(sgSrc)
	_, hasErrors = clean.Lint()
	if hasErrors {
		t.Error("clean program reported errors")
	}
}

func TestProgramQueriesCollected(t *testing.T) {
	p := MustParseProgram(sgSrc + "?- sg(a,Y).\n")
	qs := p.Queries()
	if len(qs) != 1 || qs[0] != "?- sg(a,Y)." {
		t.Errorf("Queries = %v", qs)
	}
}

// TestCrossStrategyEquivalenceRandom is the Theorems 1–3 backbone test:
// on pseudo-random acyclic databases, every applicable strategy returns the
// same answers; on cyclic ones, the cyclic-safe strategies agree.
func TestCrossStrategyEquivalenceRandom(t *testing.T) {
	programs := []struct {
		src     string
		goal    string
		classic bool // classical counting applicable
	}{
		{sgSrc, "?- sg(n0,Y).", true},
		{`p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1,W), p(X1,Y1), down(Y1,Y,W).`, "?- p(n0,Y).", false},
		{`p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).`, "?- p(n0,Y).", false},
	}
	for pi, pc := range programs {
		for seed := 0; seed < 6; seed++ {
			for _, cyclic := range []bool{false, true} {
				facts := randomFacts(seed, 10, 16, cyclic, pi == 1)
				p := MustParseProgram(pc.src)
				db := NewDatabase(p)
				if err := db.LoadFacts(facts); err != nil {
					t.Fatal(err)
				}
				want := rows(mustEval(t, p, db, pc.goal, SemiNaive))
				strategies := []Strategy{Magic, MagicSup, CountingRuntime, Auto}
				if !cyclic {
					strategies = append(strategies, Counting, CountingReduced)
					if pc.classic {
						strategies = append(strategies, CountingClassic)
					}
				}
				for _, s := range strategies {
					res, err := Eval(p, db, pc.goal, s)
					if err != nil {
						// Explicit strategies may be inapplicable to a
						// given program; that is fine.
						if errors.Is(err, counting.ErrNotApplicable) {
							continue
						}
						t.Fatalf("program %d seed %d cyclic=%v %v: %v", pi, seed, cyclic, s, err)
					}
					if got := rows(res); got != want {
						t.Errorf("program %d seed %d cyclic=%v: %v answers %q, want %q\nfacts: %s",
							pi, seed, cyclic, s, got, want, facts)
					}
				}
			}
		}
	}
}

// randomFacts builds a reproducible random database; when withW is set the
// up/down relations carry a shared third attribute.
func randomFacts(seed, nodes, arcs int, cyclic, withW bool) string {
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(n))
	}
	var sb strings.Builder
	for i := 0; i < arcs; i++ {
		a, b := next(nodes), next(nodes)
		if !cyclic {
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
		}
		if withW {
			fmt.Fprintf(&sb, "up(n%d,n%d,w%d). ", a, b, next(3))
		} else {
			fmt.Fprintf(&sb, "up(n%d,n%d). ", a, b)
		}
	}
	for i := 0; i < nodes; i++ {
		if next(2) == 0 {
			fmt.Fprintf(&sb, "flat(n%d,m%d). ", i, next(nodes))
		}
	}
	for i := 0; i < arcs; i++ {
		a, b := next(nodes), next(nodes)
		if withW {
			fmt.Fprintf(&sb, "down(m%d,m%d,w%d). ", a, b, next(3))
		} else {
			fmt.Fprintf(&sb, "down(m%d,m%d). ", a, b)
		}
	}
	return sb.String()
}

// TestIntrospectionNilDatabase: the introspection entry points take a nil
// database to mean the program's own facts, as PlannerChoices and Plan do.
func TestIntrospectionNilDatabase(t *testing.T) {
	p := MustParseProgram(sgSrc + "up(a,b). flat(b,f). down(f,g).\n")
	if _, err := CountingSet(p, nil, "?- sg(a,Y)."); err != nil {
		t.Errorf("CountingSet: %v", err)
	}
	exps, err := Explain(p, nil, "?- sg(a,Y).")
	if err != nil || len(exps) != 1 || strings.Join(exps[0].Answer, ",") != "a,g" {
		t.Errorf("Explain = %v, %v; want the one answer a,g", exps, err)
	}
}
