package counting

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lincount/internal/database"
	"lincount/internal/term"
)

func runRuntime(t *testing.T, src, goal, facts string) (*rwFixture, *RunResult) {
	t.Helper()
	f := newRW(t, src, goal, facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

func fmtAnswers(f *rwFixture, res *RunResult) []string {
	return formatSorted(f.bank, res.Answers)
}

// formatSorted renders tuples as comma-joined values, sorted: evaluators
// return their answers in no particular order.
func formatSorted(bank *term.Bank, ts []database.Tuple) []string {
	out := make([]string, len(ts))
	for i, tu := range ts {
		parts := make([]string, len(tu))
		for j, v := range tu {
			parts[j] = bank.Format(v)
		}
		out[i] = strings.Join(parts, ",")
	}
	sort.Strings(out)
	return out
}

// sgProgram is the same-generation program of Examples 1 and 5.
const sgProgram = `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`

// example5Facts is the cyclic database of Example 5. The paper's listing
// has an OCR artifact "up(e,f)"; the worked trace (counting set o1..o5,
// cycle tuple at d, answers h, j, l) requires the back arc up(e,d).
const example5Facts = `
up(a,b). up(b,c). up(c,d). up(d,e). up(e,d). up(b,e).
down(f,g). down(g,h). down(h,i). down(i,j). down(j,k). down(k,l).
flat(e,f).
`

// TestExample5CountingSet reproduces the counting set of Example 5: five
// nodes a,b,c,d,e; ahead predecessors b←a, c←b, d←c, e←d, e←b; one back
// entry d←e.
func TestExample5CountingSet(t *testing.T) {
	f := newRW(t, sgProgram, "?- sg(a,Y).", example5Facts)
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(an, f.db, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.buildCountingSet(); err != nil {
		t.Fatal(err)
	}
	if len(rt.nodes) != 5 {
		t.Fatalf("counting set has %d nodes, want 5", len(rt.nodes))
	}
	name := func(id int32) string {
		if id == nilNode {
			return "nil"
		}
		return f.bank.Format(rt.nodeVals(id)[0])
	}
	ahead := map[string][]string{}
	back := map[string][]string{}
	for id, n := range rt.nodes {
		for _, e := range n.ahead {
			ahead[name(int32(id))] = append(ahead[name(int32(id))], name(e.node))
		}
		for _, e := range n.back {
			back[name(int32(id))] = append(back[name(int32(id))], name(e.node))
		}
	}
	wantAhead := map[string]string{
		"a": "[nil]", "b": "[a]", "c": "[b]", "d": "[c]", "e": "[d b]",
	}
	for n, w := range wantAhead {
		if got := fmt.Sprint(ahead[n]); got != w {
			t.Errorf("ahead[%s] = %v, want %v", n, got, w)
		}
	}
	// The cycle link of the paper: cycle_sg(d, {o5}) — d's back entry
	// points to e.
	if got := fmt.Sprint(back["d"]); got != "[e]" {
		t.Errorf("back[d] = %v, want [e]", got)
	}
	total := 0
	for _, b := range back {
		total += len(b)
	}
	if total != 1 {
		t.Errorf("total back entries = %d, want 1", total)
	}
}

// TestExample5Answers reproduces the answers of Example 5: h (2 ups),
// j (4 ups), l (6 ups through the d-e cycle).
func TestExample5Answers(t *testing.T) {
	f, res := runRuntime(t, sgProgram, "?- sg(a,Y).", example5Facts)
	if got := fmtAnswers(f, res); fmt.Sprint(got) != "[h j l]" {
		t.Errorf("answers = %v, want [h j l]", got)
	}
	if res.Stats.CountingNodes != 5 {
		t.Errorf("counting nodes = %d", res.Stats.CountingNodes)
	}
	if res.Stats.BackEntries != 1 {
		t.Errorf("back entries = %d", res.Stats.BackEntries)
	}
}

// TestExample5AgainstBottomUp: the runtime agrees with plain bottom-up
// evaluation of the original program (which terminates on cyclic data
// because Datalog is function-free).
func TestExample5AgainstBottomUp(t *testing.T) {
	f, res := runRuntime(t, sgProgram, "?- sg(a,Y).", example5Facts)
	got := fmtAnswers(f, res)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	if fmt.Sprint(got) != fmt.Sprint(plainFree) {
		t.Errorf("runtime %v, plain %v", got, plainFree)
	}
}

func TestRuntimeAcyclicAgreesWithExtended(t *testing.T) {
	facts := `
up(a,b). up(b,c). up(a,d).
flat(c,c2). flat(d,d2). flat(a,a2).
down(c2,x1). down(x1,x2). down(d2,x3). down(a2,x4).
`
	f, res := runRuntime(t, sgProgram, "?- sg(a,Y).", facts)
	got := fmtAnswers(f, res)

	rw := f.extended(t)
	ext := evalAnswers(t, f, rw)
	var extFree []string
	for _, g := range ext {
		extFree = append(extFree, strings.TrimSuffix(g, ",[]"))
	}
	if fmt.Sprint(got) != fmt.Sprint(extFree) {
		t.Errorf("runtime %v, extended %v", got, extFree)
	}
}

// TestRuntimeSelfLoop: a self loop in the up relation (a one-node cycle).
func TestRuntimeSelfLoop(t *testing.T) {
	facts := `
up(a,a). flat(a,f). down(f,g).
`
	f, res := runRuntime(t, sgProgram, "?- sg(a,Y).", facts)
	got := fmtAnswers(f, res)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	if fmt.Sprint(got) != fmt.Sprint(plainFree) {
		t.Errorf("runtime %v, plain %v", got, plainFree)
	}
	if res.Stats.BackEntries != 1 {
		t.Errorf("self loop should be one back entry, got %d", res.Stats.BackEntries)
	}
}

// TestRuntimeSharedVariablesCyclic: Example 4's shared-variable machinery
// combined with a cycle.
func TestRuntimeSharedVariablesCyclic(t *testing.T) {
	src := `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1,W), p(X1,Y1), down(Y1,Y,W).
`
	facts := `
up(a,b,1). up(b,a,2). flat(a,fa). flat(b,fb).
down(fa,g1,2). down(fb,g2,1). down(g1,g3,1). down(g2,g4,2). down(g3,g5,9).
`
	f, res := runRuntime(t, src, "?- p(a,Y).", facts)
	got := fmtAnswers(f, res)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	if fmt.Sprint(got) != fmt.Sprint(plainFree) {
		t.Errorf("runtime %v, plain %v", got, plainFree)
	}
}

// TestRuntimeBoundHeadVarCyclic: D_r ≠ ∅ on cyclic data — the head's bound
// argument is recovered from the destination node.
func TestRuntimeBoundHeadVarCyclic(t *testing.T) {
	src := `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y1), down(Y1,Y,X).
`
	facts := `
up(a,b). up(b,c). up(c,a).
flat(c,fc). flat(a,fa).
down(fc,g1,b). down(g1,g2,a). down(fa,h1,c). down(fc,gX,zz).
`
	f, res := runRuntime(t, src, "?- p(a,Y).", facts)
	got := fmtAnswers(f, res)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	if fmt.Sprint(got) != fmt.Sprint(plainFree) {
		t.Errorf("runtime %v, plain %v", got, plainFree)
	}
}

// TestRuntimeMixedLinearCyclic: right- and left-linear rules over a cyclic
// graph.
func TestRuntimeMixedLinearCyclic(t *testing.T) {
	src := `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).
`
	facts := `
up(a,b). up(b,c). up(c,b).
flat(b,fb). flat(c,fc). flat(a,fa).
down(fb,d1). down(fc,d2). down(d2,d3).
`
	f, res := runRuntime(t, src, "?- p(a,Y).", facts)
	got := fmtAnswers(f, res)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	if fmt.Sprint(got) != fmt.Sprint(plainFree) {
		t.Errorf("runtime %v, plain %v", got, plainFree)
	}
}

// TestRuntimeMutualRecursionCyclic: a two-predicate clique with a cycle
// through both predicates.
func TestRuntimeMutualRecursionCyclic(t *testing.T) {
	src := `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), q(X1,Y1), down(Y1,Y).
q(X,Y) :- over(X,X1), p(X1,Y1), under(Y1,Y).
`
	facts := `
up(a,b). over(b,a). up(a,c). over(c,d).
flat(d,fd). flat(a,fa).
under(fd,u1). down(u1,v1). under(fa,u2). down(u2,v2). under(v2,u3). down(v1,v3).
`
	f, res := runRuntime(t, src, "?- p(a,Y).", facts)
	got := fmtAnswers(f, res)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	if fmt.Sprint(got) != fmt.Sprint(plainFree) {
		t.Errorf("runtime %v, plain %v", got, plainFree)
	}
}

// TestRuntimePassthroughStrata: exit and left parts over derived (lower
// stratum) predicates.
func TestRuntimePassthroughStrata(t *testing.T) {
	src := `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
up(X,Y) :- upraw(X,Y).
flat(X,Y) :- flatraw(X,Y).
`
	facts := `
upraw(a,b). upraw(b,a). flatraw(b,f). down(f,g). down(g,h).
`
	f, res := runRuntime(t, src, "?- sg(a,Y).", facts)
	got := fmtAnswers(f, res)
	plain := plainAnswers(t, f)
	var plainFree []string
	for _, p := range plain {
		plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
	}
	if fmt.Sprint(got) != fmt.Sprint(plainFree) {
		t.Errorf("runtime %v, plain %v", got, plainFree)
	}
}

// TestRuntimeNonRecursiveGoal: the degenerate case with no recursion.
func TestRuntimeNonRecursiveGoal(t *testing.T) {
	f, res := runRuntime(t, "p(X,Y) :- e(X,Y).\n", "?- p(a,Y).", "e(a,b). e(a,c). e(z,w).")
	if got := fmtAnswers(f, res); fmt.Sprint(got) != "[b c]" {
		t.Errorf("answers = %v", got)
	}
	if res.Stats.CountingNodes != 1 {
		t.Errorf("nodes = %d, want 1", res.Stats.CountingNodes)
	}
}

// TestRuntimeNoAnswers: empty result on data where the exit never fires.
func TestRuntimeNoAnswers(t *testing.T) {
	f, res := runRuntime(t, sgProgram, "?- sg(a,Y).", "up(a,b). up(b,c). down(x,y).")
	if len(res.Answers) != 0 {
		t.Errorf("answers = %v, want none", fmtAnswers(f, res))
	}
	if res.Stats.CountingNodes != 3 {
		t.Errorf("counting nodes = %d, want 3", res.Stats.CountingNodes)
	}
}

// TestRuntimeBudget: the tuple budget guards runaway evaluations.
func TestRuntimeBudget(t *testing.T) {
	var facts strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&facts, "up(n%d,n%d). ", i, i+1)
	}
	f := newRW(t, sgProgram, "?- sg(n0,Y).", facts.String())
	an, err := Analyze(f.adorned(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(an, f.db, RuntimeOptions{MaxTuples: 10}); err == nil {
		t.Error("budget not enforced")
	}
}

// TestRuntimeEquivalenceRandomCyclic cross-checks runtime vs bottom-up on a
// set of pseudo-random cyclic graphs.
func TestRuntimeEquivalenceRandomCyclic(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		facts := randomSGFacts(seed, 12, 20, true)
		f, res := runRuntime(t, sgProgram, "?- sg(n0,Y).", facts)
		got := fmtAnswers(f, res)
		plain := plainAnswers(t, f)
		var plainFree []string
		for _, p := range plain {
			plainFree = append(plainFree, strings.SplitN(p, ",", 2)[1])
		}
		if fmt.Sprint(got) != fmt.Sprint(plainFree) {
			t.Errorf("seed %d: runtime %v, plain %v\nfacts: %s", seed, got, plainFree, facts)
		}
	}
}

// randomSGFacts builds a pseudo-random up/flat/down database. A simple
// linear congruential generator keeps it dependency-free and reproducible.
func randomSGFacts(seed, nodes, arcs int, cyclic bool) string {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	var sb strings.Builder
	for i := 0; i < arcs; i++ {
		a, b := next(nodes), next(nodes)
		if !cyclic && a >= b {
			continue
		}
		fmt.Fprintf(&sb, "up(n%d,n%d). ", a, b)
	}
	for i := 0; i < nodes; i++ {
		if next(2) == 0 {
			fmt.Fprintf(&sb, "flat(n%d,m%d). ", i, i)
		}
	}
	for i := 0; i < arcs; i++ {
		a, b := next(nodes), next(nodes)
		fmt.Fprintf(&sb, "down(m%d,m%d). ", a, b)
	}
	return sb.String()
}
