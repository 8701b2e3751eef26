package bench

import (
	"fmt"
	"strings"

	"lincount"
)

// The E-series experiments re-run the paper's worked examples and verify
// the exact results its text reports. A row's Err column is empty when the
// check passes and carries a diagnostic when it does not, so the rendered
// table doubles as a reproduction record.

func checkRow(name string, got, want string) Row {
	r := Row{Workload: name, Strategy: "check"}
	if got != want {
		r.Err = fmt.Sprintf("got %s, want %s", got, want)
	}
	return r
}

func answersOf(src, facts, query string, s lincount.Strategy) (string, error) {
	p, err := lincount.ParseProgram(src)
	if err != nil {
		return "", err
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(facts); err != nil {
		return "", err
	}
	// The caps only matter for the intentionally divergent check in E5;
	// every legitimate example run stays far below them.
	res, err := lincount.EvalContext(runCtx, p, db, query, s,
		lincount.WithMaxIterations(20_000), lincount.WithMaxDerivedFacts(1_000_000))
	if err != nil {
		return "", err
	}
	parts := make([]string, len(res.Answers))
	for i, row := range res.Answers {
		parts[i] = strings.Join(row, ",")
	}
	return "[" + strings.Join(parts, " ") + "]", nil
}

const sgExample = `sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`

// E1SameGeneration re-runs Example 1: the same-generation query under every
// rewriting agrees with bottom-up evaluation.
func E1SameGeneration() Table {
	t := Table{
		ID:    "E1",
		Title: "Example 1 — same generation, all strategies agree",
		Note:  "tree data; answers must be identical across strategies (Theorems 1–3).",
	}
	facts := `
up(d,b). up(e,b). up(b,a). up(c,a).
flat(a,a). flat(b,c). flat(c,b).
down(a,a). down(b,d). down(c,e).
`
	want, err := answersOf(sgExample, facts, "?- sg(d,Y).", lincount.SemiNaive)
	if err != nil {
		t.Rows = append(t.Rows, Row{Workload: "baseline", Err: err.Error()})
		return t
	}
	for _, s := range []lincount.Strategy{lincount.Magic, lincount.CountingClassic, lincount.Counting, lincount.CountingRuntime} {
		got, err := answersOf(sgExample, facts, "?- sg(d,Y).", s)
		r := checkRow("sg(d,Y) via "+s.String(), got, want)
		if err != nil {
			r.Err = err.Error()
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

// E2ArcClassification re-runs Example 2's DFS arc classification on the
// counting runtime: the six arcs are the left part (up) of the
// same-generation program, and the runtime's counting set records how its
// depth-first exploration classified each one.
func E2ArcClassification() Table {
	t := Table{
		ID:    "E2",
		Title: "Example 2 — DFS arc classification",
		Note:  "arcs (a,b),(b,c),(a,d) tree; (a,c) forward; (d,b) cross; (c,b) back.",
	}
	arcs := []string{"ab", "ac", "db", "cb", "bc", "ad"}
	var facts strings.Builder
	for _, a := range arcs {
		fmt.Fprintf(&facts, "up(%c,%c).\n", a[0], a[1])
	}
	cs, err := countingSetOf(sgExample, facts.String(), "?- sg(a,Y).")
	if err != nil {
		t.Rows = append(t.Rows, Row{Workload: "counting set", Err: err.Error()})
		return t
	}
	want := map[string]string{
		"ab": "tree", "bc": "tree", "ad": "tree",
		"ac": "forward", "db": "cross", "cb": "back",
	}
	for _, arc := range arcs {
		t.Rows = append(t.Rows, checkRow(
			fmt.Sprintf("arc (%c,%c)", arc[0], arc[1]),
			cs.class(arc[:1], arc[1:]), want[arc]))
	}
	for _, n := range []struct{ node, want string }{
		{"a", "single"}, {"d", "single"}, {"b", "recurring"}, {"c", "recurring"},
	} {
		t.Rows = append(t.Rows, checkRow("node "+n.node, cs.multiplicity(n.node), n.want))
	}
	return t
}

// countingSet is what E2 reads of a counting set as lincount.CountingSet
// prints it, for a single-predicate program without shared variables:
// nodes by bound value.
type countingSet struct {
	num   map[string]int      // o-number (depth-first discovery order)
	ahead map[string][]string // ahead predecessors in entry order; the source's is "nil"
	back  map[string][]string // back-arc predecessors (the cycle links)
}

func countingSetOf(src, facts, query string) (*countingSet, error) {
	p, err := lincount.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(facts); err != nil {
		return nil, err
	}
	dump, err := lincount.CountingSet(p, db, query)
	if err != nil {
		return nil, err
	}
	cs := &countingSet{num: map[string]int{}, ahead: map[string][]string{}, back: map[string][]string{}}
	value := map[string]string{"nil": "nil"} // o-id → bound value
	for _, line := range strings.Split(dump, "\n") {
		if id, rest, ok := strings.Cut(line, " : ("); ok {
			// o2 : (b, {o1,o4})
			v, ents, _ := strings.Cut(rest, ", {")
			value[id] = v
			cs.num[v] = len(cs.num) + 1
			cs.ahead[v] = strings.Split(strings.TrimSuffix(ents, "})"), ",")
		} else if rest, ok := strings.CutPrefix(line, "cycle("); ok {
			// cycle(b) = {o3}, listed after every node
			v, ents, _ := strings.Cut(rest, ") = {")
			for _, id := range strings.Split(strings.TrimSuffix(ents, "}"), ",") {
				cs.back[v] = append(cs.back[v], value[id])
			}
		}
	}
	// An ahead entry may name a node discovered later (a cross arc).
	for _, ids := range cs.ahead {
		for i, id := range ids {
			ids[i] = value[id]
		}
	}
	return cs, nil
}

// class reads the arc (from,to) off to's entries: its first ahead entry is
// its tree arc, any other is a forward arc from an earlier-discovered node
// or a cross arc from a later one, and a cycle link is a back arc.
func (cs *countingSet) class(from, to string) string {
	for i, p := range cs.ahead[to] {
		switch {
		case p != from:
		case i == 0:
			return "tree"
		case cs.num[from] < cs.num[to]:
			return "forward"
		default:
			return "cross"
		}
	}
	for _, p := range cs.back[to] {
		if p == from {
			return "back"
		}
	}
	return "unreached"
}

// multiplicity is the paper's §2 node taxonomy: a node reachable from a
// back arc's target has infinitely many paths from the source (recurring);
// any other node has as many as its ahead predecessors together.
func (cs *countingSet) multiplicity(v string) string {
	if _, ok := cs.num[v]; !ok {
		return "not-reached"
	}
	succ := map[string][]string{}
	var work []string
	for w, ps := range cs.ahead {
		for _, p := range ps {
			succ[p] = append(succ[p], w)
		}
	}
	for w, ps := range cs.back {
		work = append(work, w)
		for _, p := range ps {
			succ[p] = append(succ[p], w)
		}
	}
	recurring := map[string]bool{}
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		if !recurring[w] {
			recurring[w] = true
			work = append(work, succ[w]...)
		}
	}
	if recurring[v] {
		return "recurring"
	}
	var paths func(v string) int
	paths = func(v string) int {
		n := 0
		for _, p := range cs.ahead[v] {
			if p == "nil" {
				n++
			} else {
				n += paths(p)
			}
		}
		return n
	}
	if paths(v) == 1 {
		return "single"
	}
	return "multiple"
}

// E3MultiRule re-runs Example 3: with two recursive rules only the answer
// reached by undoing the rules in reverse order exists.
func E3MultiRule() Table {
	t := Table{
		ID:    "E3",
		Title: "Example 3 — two recursive rules, reversed undo order",
		Note:  "up1;up2 applied downward admits only down2;down1 upward.",
	}
	src := `sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up1(X,X1), sg(X1,Y1), down1(Y1,Y).
sg(X,Y) :- up2(X,X1), sg(X1,Y1), down2(Y1,Y).
`
	facts := `
up1(a,b). up2(b,c). flat(c,c2).
down2(c2,d). down1(d,good).
down1(c2,e). down2(e,bad).
`
	for _, s := range []lincount.Strategy{lincount.SemiNaive, lincount.Counting, lincount.CountingRuntime, lincount.Magic} {
		got, err := answersOf(src, facts, "?- sg(a,Y).", s)
		r := checkRow("sg(a,Y) via "+s.String(), got, "[a,good]")
		if err != nil {
			r.Err = err.Error()
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

// E4SharedVariables re-runs Example 4's two databases.
func E4SharedVariables() Table {
	t := Table{
		ID:    "E4",
		Title: "Example 4 — shared variables between left and right parts",
		Note:  "db1 answers p(a,e) via W=1; db2 answers p(a,e) via X=a.",
	}
	src := `p(X,Y) :- flat(X,Y).
p(X,Y) :- up1(X,X1,W), p(X1,Y1), down1(Y1,Y,W).
p(X,Y) :- up2(X,X1), p(X1,Y1), down2(Y1,Y,X).
`
	db1 := "up1(a,b,1). flat(b,c). down1(c,d,2). down1(c,e,1).\n"
	db2 := "up2(a,b). flat(b,c). down2(c,d,b). down2(c,e,a).\n"
	for _, s := range []lincount.Strategy{lincount.SemiNaive, lincount.Counting, lincount.CountingRuntime, lincount.Magic} {
		got, err := answersOf(src, db1, "?- p(a,Y).", s)
		r := checkRow("db1 p(a,Y) via "+s.String(), got, "[a,e]")
		if err != nil {
			r.Err = err.Error()
		}
		t.Rows = append(t.Rows, r)
		got, err = answersOf(src, db2, "?- p(a,Y).", s)
		r = checkRow("db2 p(a,Y) via "+s.String(), got, "[a,e]")
		if err != nil {
			r.Err = err.Error()
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

// E5Cyclic re-runs Example 5: the cyclic database with answers h, j, l.
func E5Cyclic() Table {
	t := Table{
		ID:    "E5",
		Title: "Example 5 — cyclic database (counting set o1..o5, cycle at d)",
		Note: `answers are h (2 ups), j (4 ups), l (6 ups through the d–e cycle);
the paper's "up(e,f)" is the OCR form of the back arc up(e,d) its trace requires.`,
	}
	facts := `
up(a,b). up(b,c). up(c,d). up(d,e). up(e,d). up(b,e).
down(f,g). down(g,h). down(h,i). down(i,j). down(j,k). down(k,l).
flat(e,f).
`
	for _, s := range []lincount.Strategy{lincount.SemiNaive, lincount.CountingRuntime, lincount.Magic} {
		got, err := answersOf(sgExample, facts, "?- sg(a,Y).", s)
		r := checkRow("sg(a,Y) via "+s.String(), got, "[a,h a,j a,l]")
		if err != nil {
			r.Err = err.Error()
		}
		t.Rows = append(t.Rows, r)
	}
	// Classical counting must diverge (caught by the guard).
	_, err := answersOf(sgExample, facts, "?- sg(a,Y).", lincount.CountingClassic)
	r := Row{Workload: "classic counting diverges", Strategy: "check"}
	if err == nil {
		r.Err = "expected budget error on cyclic data"
	}
	t.Rows = append(t.Rows, r)
	return t
}

// E6MixedLinear re-runs Example 6's reduction.
func E6MixedLinear() Table {
	t := Table{
		ID:    "E6",
		Title: "Example 6 — mixed-linear program and its reduction",
		Note:  "the reduced program drops the path argument entirely (§5, Fact 1).",
	}
	src := `p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).
`
	p, err := lincount.ParseProgram(src)
	if err != nil {
		t.Rows = append(t.Rows, Row{Workload: "parse", Err: err.Error()})
		return t
	}
	prog, goal, err := lincount.Rewrite(p, "?- p(a,Y).", lincount.CountingReduced)
	if err != nil {
		t.Rows = append(t.Rows, Row{Workload: "rewrite", Err: err.Error()})
		return t
	}
	wantRules := []string{
		"c_p_bf(a).",
		"c_p_bf(X1) :- c_p_bf(X), up(X,X1).",
		"p_bf(Y) :- c_p_bf(X), flat(X,Y).",
		"p_bf(Y) :- p_bf(Y1), down(Y1,Y).",
	}
	for _, w := range wantRules {
		r := Row{Workload: "reduced rule " + w, Strategy: "check"}
		if !strings.Contains(prog, w) {
			r.Err = "missing from reduced program"
		}
		t.Rows = append(t.Rows, r)
	}
	t.Rows = append(t.Rows, checkRow("reduced goal", goal, "?- p_bf(Y)."))

	facts := "up(a,b). up(b,c). flat(c,f0). flat(a,fa). down(f0,f1). down(f1,f2).\n"
	want, _ := answersOf(src, facts, "?- p(a,Y).", lincount.SemiNaive)
	got, err := answersOf(src, facts, "?- p(a,Y).", lincount.CountingReduced)
	r := checkRow("answers via counting-reduced", got, want)
	if err != nil {
		r.Err = err.Error()
	}
	t.Rows = append(t.Rows, r)
	return t
}
