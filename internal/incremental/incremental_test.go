package incremental

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

type fixture struct {
	bank *term.Bank
	prog *ast.Program
	db   *database.Database
}

func newFixture(t testing.TB, rules, facts string) *fixture {
	t.Helper()
	bank := term.NewBank(symtab.New())
	res, err := parser.Parse(bank, rules)
	if err != nil {
		t.Fatalf("parse rules: %v", err)
	}
	db := database.New(bank)
	if facts != "" {
		if err := db.LoadText(facts); err != nil {
			t.Fatalf("load facts: %v", err)
		}
	}
	return &fixture{bank: bank, prog: res.Program, db: db}
}

func (f *fixture) query(t testing.TB, goal string) ast.Query {
	t.Helper()
	q, err := parser.ParseQuery(f.bank, goal)
	if err != nil {
		t.Fatalf("parse query %q: %v", goal, err)
	}
	return q
}

func (f *fixture) sym(s string) symtab.Sym { return f.bank.Symbols().Intern(s) }

// oracleAnswers evaluates the program from scratch with the stock engine.
func oracleAnswers(t testing.TB, f *fixture, db *database.Database, q ast.Query) []database.Tuple {
	t.Helper()
	res, err := engine.Eval(f.prog, db, engine.Options{})
	if err != nil {
		t.Fatalf("oracle eval: %v", err)
	}
	return engine.Answers(res, db, q)
}

// sameTuples reports whether a and b hold the same tuples, in any order:
// answers come in no particular order.
func sameTuples(a, b []database.Tuple) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, slices.Compare)
	slices.SortFunc(b, slices.Compare)
	return slices.EqualFunc(a, b, database.Tuple.Equal)
}

// checkAgainstOracle asserts mat ≡ from-scratch evaluation for the goal
// and that the maintained relations survive a from-scratch set diff.
func checkAgainstOracle(t testing.TB, f *fixture, m *Materialization, goal string) {
	t.Helper()
	q := f.query(t, goal)
	got := m.Answers(q)
	want := oracleAnswers(t, f, m.Database(), q)
	if !sameTuples(got, want) {
		t.Fatalf("maintained answers diverge for %s:\n got %v\nwant %v", goal, got, want)
	}
	if err := m.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// has reports whether pred's materialised relation holds the tuple.
func has(m *Materialization, pred symtab.Sym, t database.Tuple) bool {
	rel := m.Relation(pred)
	return rel != nil && rel.Contains(t)
}

// apply runs one batch through maintenance on a fresh fork.
func apply(t testing.TB, m *Materialization, ops []Op) (*Materialization, *ApplyResult) {
	t.Helper()
	m2, res, err := m.Apply(context.Background(), m.Database().Fork(), ops)
	if err != nil {
		t.Fatalf("apply %v: %v", ops, err)
	}
	return m2, res
}

func TestBuildMatchesEngine(t *testing.T) {
	f := newFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,c). e(c,d). e(d,b).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, f, m, "?- tc(X,Y).")
	// b→c→d→b cycle: tc(b,b) is derived, though no base fact states it.
	if !has(m, f.sym("tc"), database.Tuple{term.Symbol(f.sym("b")), term.Symbol(f.sym("b"))}) {
		t.Fatal("tc(b,b) missing from the materialisation")
	}
}

func TestInsertResumesFixpoint(t *testing.T) {
	f := newFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,c).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, res := apply(t, m, []Op{{Text: "e(c,d). e(d,e)."}})
	if res.NetInserted != 2 {
		t.Fatalf("NetInserted = %d, want 2", res.NetInserted)
	}
	if res.DerivedAdded == 0 {
		t.Fatal("insertion produced no derived rows")
	}
	checkAgainstOracle(t, f, m, "?- tc(X,Y).")
	// A second wave reusing the new edges.
	m, _ = apply(t, m, []Op{{Text: "e(e,a)."}})
	checkAgainstOracle(t, f, m, "?- tc(X,Y).")
}

func TestDeleteNonRecursive(t *testing.T) {
	f := newFixture(t,
		"p(X,Y) :- e(X,Y).\nq(X) :- p(X,Y), f(Y).",
		"e(a,b). e(a,c). e(d,b). f(b). f(c).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, res := apply(t, m, []Op{{Retract: true, Text: "e(a,b). f(c)."}})
	if res.NetDeleted != 2 {
		t.Fatalf("NetDeleted = %d, want 2", res.NetDeleted)
	}
	checkAgainstOracle(t, f, m, "?- q(X).")
	checkAgainstOracle(t, f, m, "?- p(X,Y).")
}

func TestDeleteRecursiveRederives(t *testing.T) {
	// Deleting e(a,b) breaks the chain path to c, but c stays reachable
	// through the shortcut — the DRed pass must rederive it.
	f := newFixture(t,
		"r(X) :- s(X).\nr(Y) :- r(X), e(X,Y).",
		"s(a). e(a,b). e(b,c). e(a,c). e(c,d).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, res := apply(t, m, []Op{{Retract: true, Text: "e(a,b)."}})
	if res.Overdeleted == 0 {
		t.Fatal("expected overdeletion traffic in the recursive component")
	}
	if res.Rederived == 0 {
		t.Fatal("expected rederivations (c and d stay reachable)")
	}
	checkAgainstOracle(t, f, m, "?- r(X).")
}

func TestDeleteEmptiesRecursiveComponent(t *testing.T) {
	f := newFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,c). e(c,a).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ = apply(t, m, []Op{{Retract: true, Text: "e(a,b). e(b,c). e(c,a)."}})
	checkAgainstOracle(t, f, m, "?- tc(X,Y).")
	if rel := m.Relation(f.sym("tc")); rel != nil && rel.Len() != 0 {
		t.Fatalf("tc should be empty, has %d tuples", rel.Len())
	}
	if m.DerivedFacts() != 0 {
		t.Fatalf("DerivedFacts = %d, want 0", m.DerivedFacts())
	}
	// The emptied component accepts new facts afterwards.
	m, _ = apply(t, m, []Op{{Text: "e(x,y). e(y,z)."}})
	checkAgainstOracle(t, f, m, "?- tc(X,Y).")
}

func TestRetractThenReassertOneBatch(t *testing.T) {
	f := newFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,c).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Answers(f.query(t, "?- tc(X,Y)."))
	m, res := apply(t, m, []Op{
		{Retract: true, Text: "e(a,b)."},
		{Text: "e(a,b)."},
	})
	// The retract really happened mid-batch...
	if res.RetractedPerOp[0] != 1 {
		t.Fatalf("RetractedPerOp[0] = %d, want 1", res.RetractedPerOp[0])
	}
	// ...but the net effect cancels: no maintenance traffic at all.
	if res.NetInserted != 0 || res.NetDeleted != 0 {
		t.Fatalf("net delta = +%d/-%d, want 0/0", res.NetInserted, res.NetDeleted)
	}
	after := m.Answers(f.query(t, "?- tc(X,Y)."))
	if !sameTuples(before, after) {
		t.Fatalf("retract-then-reassert changed answers: %v -> %v", before, after)
	}
	checkAgainstOracle(t, f, m, "?- tc(X,Y).")
}

func TestRetractNeverAsserted(t *testing.T) {
	f := newFixture(t, "p(X) :- e(X).", "e(a).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, res := apply(t, m, []Op{{Retract: true, Text: "e(zzz). ghost(1,2)."}})
	if res.RetractedPerOp[0] != 0 {
		t.Fatalf("RetractedPerOp[0] = %d, want 0", res.RetractedPerOp[0])
	}
	if res.NetDeleted != 0 {
		t.Fatalf("NetDeleted = %d, want 0", res.NetDeleted)
	}
	checkAgainstOracle(t, f, m, "?- p(X).")
}

func TestDuplicateAssertsAndSharedSupport(t *testing.T) {
	// p is both derived (from e) and directly asserted: one tuple with
	// two supports, a rule derivation and a base row.
	f := newFixture(t, "p(X) :- e(X).", "e(a).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, aa := f.sym("p"), database.Tuple{term.Symbol(f.sym("a"))}
	if !has(m, p, aa) {
		t.Fatal("p(a) missing (rule support)")
	}
	// Duplicate asserts in one batch: base dedup keeps one row.
	m, _ = apply(t, m, []Op{{Text: "p(a). p(a)."}})
	if rel := m.Relation(p); rel.Len() != 1 {
		t.Fatalf("p has %d tuples, want 1", rel.Len())
	}
	checkAgainstOracle(t, f, m, "?- p(X).")
	// Dropping the base copy keeps the tuple alive through the rule...
	m, res := apply(t, m, []Op{{Retract: true, Text: "p(a)."}})
	if !has(m, p, aa) || res.Rederived != 1 {
		t.Fatalf("after base retract: p(a) present %v, Rederived %d; want true, 1", has(m, p, aa), res.Rederived)
	}
	checkAgainstOracle(t, f, m, "?- p(X).")
	// ...and dropping the last support kills it.
	m, res = apply(t, m, []Op{{Retract: true, Text: "e(a)."}})
	if has(m, p, aa) || res.DerivedRemoved != 1 {
		t.Fatalf("after losing all support: p(a) present %v, DerivedRemoved %d; want false, 1", has(m, p, aa), res.DerivedRemoved)
	}
	checkAgainstOracle(t, f, m, "?- p(X).")
}

func TestNotIncrementalNegation(t *testing.T) {
	f := newFixture(t, "p(X) :- e(X), not q(X).\nq(b).", "e(a). e(b).")
	_, err := New(context.Background(), f.prog, f.db, Options{})
	if !errors.Is(err, ErrNotIncremental) {
		t.Fatalf("New = %v, want ErrNotIncremental", err)
	}
}

func TestOpErrors(t *testing.T) {
	f := newFixture(t, "p(X) :- e(X).", "e(a).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ops  []Op
		idx  int
	}{
		{"syntax", []Op{{Text: "e(b)."}, {Text: "e(((."}}, 1},
		{"arity", []Op{{Text: "e(b,c)."}}, 0},
		{"rule", []Op{{Text: "e(b)."}, {Text: "x(Y) :- e(Y)."}}, 1},
	}
	for _, tc := range cases {
		_, _, err := m.Apply(context.Background(), f.db.Fork(), tc.ops)
		var oe *database.OpError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: err = %v, want *database.OpError", tc.name, err)
		}
		if oe.Index != tc.idx {
			t.Fatalf("%s: OpError.Index = %d, want %d", tc.name, oe.Index, tc.idx)
		}
	}
}

func TestMultiComponentPropagation(t *testing.T) {
	// Two stacked recursive components plus a non-recursive cap: deletions
	// and insertions must flow across all strata.
	f := newFixture(t,
		"tc(X,Y) :- e(X,Y).\n"+
			"tc(X,Y) :- e(X,Z), tc(Z,Y).\n"+
			"reach(X) :- src(X).\n"+
			"reach(Y) :- reach(X), tc(X,Y).\n"+
			"hit(X) :- reach(X), mark(X).",
		"e(a,b). e(b,c). e(c,d). e(b,e). src(a). mark(d). mark(e).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range []string{"?- tc(X,Y).", "?- reach(X).", "?- hit(X)."} {
		checkAgainstOracle(t, f, m, goal)
	}
	m, _ = apply(t, m, []Op{{Retract: true, Text: "e(b,c)."}, {Text: "e(e,d)."}})
	for _, goal := range []string{"?- tc(X,Y).", "?- reach(X).", "?- hit(X)."} {
		checkAgainstOracle(t, f, m, goal)
	}
}

// chaosPrograms are the programs the seeded chaos test and FuzzApply
// maintain. Each mixes the shapes DRed has to handle: recursive
// components, non-recursive strata below and above them, program facts
// and head predicates that also hold base facts.
var chaosPrograms = []struct {
	name  string
	rules string
	facts []string // templates of the base facts the batches write
	goals []string
}{
	{
		name: "closure",
		rules: "tc(X,Y) :- e(X,Y).\n" +
			"tc(X,Y) :- e(X,Z), tc(Z,Y).\n" +
			"sym(X,Y) :- tc(X,Y), tc(Y,X).\n" +
			"deg(X) :- e(X,Y), f(Y).",
		facts: []string{"e(%s,%s).", "e(%s,%s).", "f(%s)."},
		goals: []string{"?- tc(X,Y).", "?- sym(X,Y).", "?- deg(X)."},
	},
	{
		// hop is a non-recursive stratum below the recursive reach, out
		// and pair are non-recursive strata above it; reach has a program
		// fact, and hop and reach also take base facts.
		name: "strata",
		rules: "hop(X,Y) :- e(X,Y).\n" +
			"hop(X,Y) :- e(X,Z), f(Z), e(Z,Y).\n" +
			"reach(n0).\n" +
			"reach(Y) :- reach(X), hop(X,Y).\n" +
			"out(X) :- reach(X), f(X).\n" +
			"pair(X,Y) :- out(X), hop(X,Y), out(Y).",
		facts: []string{"e(%s,%s).", "e(%s,%s).", "f(%s).", "hop(%s,%s).", "reach(%s)."},
		goals: []string{"?- hop(X,Y).", "?- reach(X).", "?- out(X).", "?- pair(X,Y)."},
	},
	{
		// The benchmark's same-generation shape, with a program fact in
		// the recursive head and base facts of sg.
		name: "samegen",
		rules: "sg(X,Y) :- flat(X,Y).\n" +
			"sg(n1,n1).\n" +
			"sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).",
		facts: []string{"up(%s,%s).", "flat(%s,%s).", "down(%s,%s).", "sg(%s,%s)."},
		goals: []string{"?- sg(X,Y)."},
	},
}

// TestChaosMaintenance drives seeded random assert/retract batches through
// maintenance and diffs every epoch against from-scratch evaluation — the
// same invariant the server chaos suite asserts per write batch.
func TestChaosMaintenance(t *testing.T) {
	const (
		domain  = 9
		batches = 60
	)
	for _, tc := range chaosPrograms {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.rules, "")
			m, err := New(context.Background(), f.prog, f.db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for b := 0; b < batches; b++ {
				var ops []Op
				for k := rng.Intn(4) + 1; k > 0; k-- {
					ops = append(ops, Op{
						Retract: rng.Intn(5) < 2,
						Text:    fact(tc.facts[rng.Intn(len(tc.facts))], func() int { return rng.Intn(domain) }),
					})
				}
				m2, _, err := m.Apply(context.Background(), m.Database().Fork(), ops)
				if err != nil {
					t.Fatalf("batch %d %v: %v", b, ops, err)
				}
				m = m2
				if err := m.Verify(context.Background()); err != nil {
					t.Fatalf("batch %d %v: %v", b, ops, err)
				}
				for _, goal := range tc.goals {
					q := f.query(t, goal)
					got := m.Answers(q)
					want := oracleAnswers(t, f, m.Database(), q)
					if !sameTuples(got, want) {
						t.Fatalf("batch %d: %s diverged\n got %v\nwant %v", b, goal, got, want)
					}
				}
			}
		})
	}
}

// fact fills a fact template's %s slots with nodes n<node()>.
func fact(tmpl string, node func() int) string {
	var args []any
	for range strings.Count(tmpl, "%s") {
		args = append(args, fmt.Sprintf("n%d", node()))
	}
	return fmt.Sprintf(tmpl, args...)
}

func TestApplyDoesNotMutatePredecessor(t *testing.T) {
	f := newFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,c).")
	m1, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := f.query(t, "?- tc(X,Y).")
	before := m1.Answers(q)
	m2, _ := apply(t, m1, []Op{{Text: "e(c,d)."}})
	m3, _ := apply(t, m2, []Op{{Retract: true, Text: "e(a,b)."}})
	// The older epochs still answer exactly as they did.
	if got := m1.Answers(q); !sameTuples(got, before) {
		t.Fatalf("epoch 1 answers changed after maintenance: %v -> %v", before, got)
	}
	if err := m1.Verify(context.Background()); err != nil {
		t.Fatalf("epoch 1 no longer verifies: %v", err)
	}
	if err := m2.Verify(context.Background()); err != nil {
		t.Fatalf("epoch 2 no longer verifies: %v", err)
	}
	checkAgainstOracle(t, f, m3, "?- tc(X,Y).")
}

func TestProgramFactSupport(t *testing.T) {
	// Program facts are immutable support: retracting the identical base
	// fact must not kill the tuple.
	f := newFixture(t, "p(a).\np(X) :- e(X).", "p(a). e(b).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, aa := f.sym("p"), database.Tuple{term.Symbol(f.sym("a"))}
	if !has(m, p, aa) {
		t.Fatal("p(a) missing (program fact + base)")
	}
	checkAgainstOracle(t, f, m, "?- p(X).")
	m, _ = apply(t, m, []Op{{Retract: true, Text: "p(a)."}})
	if !has(m, p, aa) {
		t.Fatal("p(a) missing after base retract (the program fact still holds it)")
	}
	checkAgainstOracle(t, f, m, "?- p(X).")
}
