package lincount_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lincount"
)

func matFixture(t testing.TB, rules, facts string) (*lincount.Program, *lincount.Materialization) {
	t.Helper()
	p := lincount.MustParseProgram(rules)
	db := lincount.NewDatabase(p)
	if facts != "" {
		if err := db.LoadFacts(facts); err != nil {
			t.Fatal(err)
		}
	}
	m, err := p.Materialize(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// matOracle compares materialised answers with a from-scratch Eval of the
// same goal on the materialisation's database epoch.
func matOracle(t testing.TB, p *lincount.Program, m *lincount.Materialization, goal string) {
	t.Helper()
	got, err := m.Answers(goal)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lincount.Eval(p, m.Database(), goal, lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res.Answers) {
		t.Fatalf("materialised answers diverge for %s:\n got %v\nwant %v", goal, got, res.Answers)
	}
}

func TestMaterializeAnswersMatchEval(t *testing.T) {
	p, m := matFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,c). e(c,a).")
	matOracle(t, p, m, "?- tc(X, Y).")
	matOracle(t, p, m, "?- tc(a, X).")
	if m.DerivedFacts() == 0 {
		t.Fatal("no derived facts materialised")
	}
}

func TestMaterializeApplyChain(t *testing.T) {
	p, m1 := matFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,c).")
	m2, info, err := m1.Apply(context.Background(), []lincount.WriteOp{{Text: "e(c,d)."}})
	if err != nil {
		t.Fatal(err)
	}
	if info.NetInserted != 1 || info.DerivedAdded == 0 {
		t.Fatalf("info = %+v, want 1 net insert with derived growth", info)
	}
	m3, info, err := m2.Apply(context.Background(), []lincount.WriteOp{{Retract: true, Text: "e(b,c)."}})
	if err != nil {
		t.Fatal(err)
	}
	if info.NetDeleted != 1 || info.DerivedRemoved == 0 {
		t.Fatalf("info = %+v, want 1 net delete with derived shrinkage", info)
	}
	// Every epoch still answers for itself (MVCC chain).
	for i, m := range []*lincount.Materialization{m1, m2, m3} {
		matOracle(t, p, m, "?- tc(X, Y).")
		if err := m.Verify(context.Background()); err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
	}
}

func TestMaterializeRetractThenReassert(t *testing.T) {
	p, m := matFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,c).")
	m2, info, err := m.Apply(context.Background(), []lincount.WriteOp{
		{Retract: true, Text: "e(a,b)."},
		{Text: "e(a,b)."},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := info.RetractedPerOp; len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("RetractedPerOp = %v, want [1 0]", got)
	}
	if info.NetInserted != 0 || info.NetDeleted != 0 {
		t.Fatalf("net delta = +%d/-%d, want 0/0", info.NetInserted, info.NetDeleted)
	}
	matOracle(t, p, m2, "?- tc(X, Y).")
}

func TestMaterializeRetractNeverAsserted(t *testing.T) {
	p, m := matFixture(t, "p(X) :- e(X).", "e(a).")
	m2, info, err := m.Apply(context.Background(), []lincount.WriteOp{
		{Retract: true, Text: "e(zz)."},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.RetractedPerOp[0] != 0 || info.NetDeleted != 0 {
		t.Fatalf("info = %+v, want a no-op", info)
	}
	matOracle(t, p, m2, "?- p(X).")
}

func TestMaterializeDeleteEmptiesComponent(t *testing.T) {
	p, m := matFixture(t,
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"e(a,b). e(b,a).")
	m2, _, err := m.Apply(context.Background(), []lincount.WriteOp{
		{Retract: true, Text: "e(a,b). e(b,a)."},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.DerivedFacts() != 0 {
		t.Fatalf("DerivedFacts = %d, want 0", m2.DerivedFacts())
	}
	matOracle(t, p, m2, "?- tc(X, Y).")
}

func TestMaterializeDuplicateAsserts(t *testing.T) {
	p, m := matFixture(t, "p(X) :- e(X).", "e(a).")
	// Duplicate asserts of a fact that is also rule-derived: the set holds
	// a single tuple, supported twice (base row and rule).
	m2, _, err := m.Apply(context.Background(), []lincount.WriteOp{{Text: "p(a). p(a)."}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m2.Answers("?- p(X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("p has %d answers, want 1", len(rows))
	}
	// The tuple survives losing its base copy (rule support remains)...
	m3, _, err := m2.Apply(context.Background(), []lincount.WriteOp{{Retract: true, Text: "p(a)."}})
	if err != nil {
		t.Fatal(err)
	}
	matOracle(t, p, m3, "?- p(X).")
	if rows, _ := m3.Answers("?- p(a)."); len(rows) != 1 {
		t.Fatal("p(a) vanished while still rule-derived")
	}
	if err := m3.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeNotIncremental(t *testing.T) {
	p := lincount.MustParseProgram("p(X) :- e(X), not q(X).\nq(b).")
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts("e(a). e(b)."); err != nil {
		t.Fatal(err)
	}
	_, err := p.Materialize(context.Background(), db)
	if !errors.Is(err, lincount.ErrNotIncremental) {
		t.Fatalf("Materialize = %v, want ErrNotIncremental", err)
	}
}

func TestMaterializeWriteError(t *testing.T) {
	_, m := matFixture(t, "p(X) :- e(X).", "e(a).")
	_, _, err := m.Apply(context.Background(), []lincount.WriteOp{
		{Text: "e(b)."},
		{Text: "e(b,c)."}, // arity mismatch
	})
	var we *lincount.WriteError
	if !errors.As(err, &we) {
		t.Fatalf("Apply = %v, want *WriteError", err)
	}
	if we.Index != 1 {
		t.Fatalf("WriteError.Index = %d, want 1", we.Index)
	}
}

// TestDatabaseApply: the public batch apply reports sequential retract
// counts and net changes, and a rejected op — the same *WriteError as
// Materialization.Apply — leaves the database untouched.
func TestDatabaseApply(t *testing.T) {
	p := lincount.MustParseProgram("p(X) :- e(X).")
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts("e(a). e(b)."); err != nil {
		t.Fatal(err)
	}
	info, err := db.Apply([]lincount.WriteOp{
		{Retract: true, Text: "e(a). e(z)."},
		{Text: "e(c). e(a)."},
		{Retract: true, Text: "e(b). e(b)."},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.RetractedPerOp, []int{1, 0, 1}) || info.NetInserted != 1 || info.NetDeleted != 1 {
		t.Fatalf("ApplyInfo = %+v, want RetractedPerOp [1 0 1], one net insert, one net delete", info)
	}
	before := db.Text()
	_, err = db.Apply([]lincount.WriteOp{{Text: "e(d)."}, {Text: "e(d,e)."}})
	var we *lincount.WriteError
	if !errors.As(err, &we) || we.Index != 1 {
		t.Fatalf("Apply = %v, want *WriteError at op 1", err)
	}
	if db.Text() != before || before != "e(a).\ne(c).\n" {
		t.Fatalf("database after a rejected batch:\n%s\nwant\ne(a).\ne(c).", db.Text())
	}
}

func TestMaterializeWrongDatabase(t *testing.T) {
	p := lincount.MustParseProgram("p(X) :- e(X).")
	other := lincount.MustParseProgram("p(X) :- e(X).")
	db := lincount.NewDatabase(other)
	if _, err := p.Materialize(context.Background(), db); !errors.Is(err, lincount.ErrWrongDatabase) {
		t.Fatalf("Materialize = %v, want ErrWrongDatabase", err)
	}
}

func TestMaterializeChaosOracle(t *testing.T) {
	p, m := matFixture(t,
		"tc(X,Y) :- e(X,Y).\n"+
			"tc(X,Y) :- e(X,Z), tc(Z,Y).\n"+
			"peer(X,Y) :- tc(X,Y), tc(Y,X).",
		"")
	rng := rand.New(rand.NewSource(7))
	node := func() string { return fmt.Sprintf("n%d", rng.Intn(7)) }
	for b := 0; b < 40; b++ {
		var ops []lincount.WriteOp
		for k := rng.Intn(3) + 1; k > 0; k-- {
			ops = append(ops, lincount.WriteOp{
				Retract: rng.Intn(5) < 2,
				Text:    fmt.Sprintf("e(%s,%s).", node(), node()),
			})
		}
		next, _, err := m.Apply(context.Background(), ops)
		if err != nil {
			t.Fatalf("batch %d %v: %v", b, ops, err)
		}
		m = next
		matOracle(t, p, m, "?- tc(X, Y).")
		matOracle(t, p, m, "?- peer(X, Y).")
	}
	if err := m.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
}
