package database

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

// sequential is the specification of a batch: the ops applied one at a
// time, asserts through LoadText and retracts through RetractText. It
// returns each op's retract count, and the index and error of the first
// op that fails (-1 when none does); db then holds whatever the ops
// before it, and the failing op's own partial effects, left behind.
func sequential(db *Database, ops []Op) (retracted []int, bad int, err error) {
	retracted = make([]int, len(ops))
	for i, op := range ops {
		if op.Retract {
			retracted[i], err = db.RetractText(op.Text)
		} else {
			err = db.LoadText(op.Text)
		}
		if err != nil {
			return retracted, i, err
		}
	}
	return retracted, -1, nil
}

// dbState renders everything a batch may change: the facts, and which
// relations exist with which arity (an emptied relation still binds its
// predicate's arity).
func dbState(db *Database) string {
	var rels []string
	for _, p := range db.Predicates() {
		rels = append(rels, fmt.Sprintf("%s/%d", db.bank.Symbols().String(p), db.Relation(p).Arity()))
	}
	return strings.Join(rels, " ") + "\n" + db.Format()
}

// randomOps draws a batch over p/1 and q/2 (present before the batch),
// r and s (absent, r drawn at either arity), constants a–c: duplicates,
// retract-then-reassert, retracts of absent facts and relations, arity
// clashes, and now and then an op that does not parse or is no fact.
func randomOps(r *rand.Rand) []Op {
	consts := []string{"a", "b", "c"}
	fact := func() string {
		pred, arity := "p", 1
		switch r.Intn(4) {
		case 1:
			pred, arity = "q", 2
		case 2:
			pred, arity = "r", 1+r.Intn(2)
		case 3:
			pred = "s"
		}
		if r.Intn(20) == 0 {
			arity = 3 - arity // an arity clash
		}
		args := make([]string, arity)
		for i := range args {
			args[i] = consts[r.Intn(len(consts))]
		}
		return pred + "(" + strings.Join(args, ",") + ")."
	}
	ops := make([]Op, 1+r.Intn(6))
	for i := range ops {
		ops[i].Retract = r.Intn(2) == 0
		switch r.Intn(40) {
		case 0:
			ops[i].Text = "p(a). p(((."
		case 1:
			ops[i].Text = "p(X)."
		case 2:
			ops[i].Text = "x(Y) :- p(Y)."
		default:
			var facts []string
			for n := 1 + r.Intn(3); n > 0; n-- {
				facts = append(facts, fact())
			}
			ops[i].Text = strings.Join(facts, " ")
		}
	}
	return ops
}

// TestSimulateIsSequential holds Simulate+Commit to sequential
// application over seeded random batches: the same facts and relations,
// the same RetractedPerOp — or, when some op fails, an *OpError with the
// index and error of the first op sequential application fails on, and
// a database left exactly as it was.
func TestSimulateIsSequential(t *testing.T) {
	const initial = "p(a). p(b). q(a,b). q(b,c)."
	failures := 0
	for seed := int64(1); seed <= 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		bank := term.NewBank(symtab.New())
		seq, got := New(bank), New(bank)
		if err := seq.LoadText(initial); err != nil {
			t.Fatal(err)
		}
		if err := got.LoadText(initial); err != nil {
			t.Fatal(err)
		}
		ops := randomOps(r)
		wantRetracted, bad, seqErr := sequential(seq, ops)
		before := dbState(got)

		b, err := got.Simulate(ops, nil)
		if bad >= 0 {
			failures++
			var oe *OpError
			if !errors.As(err, &oe) || oe.Index != bad || oe.Error() != seqErr.Error() {
				t.Fatalf("seed %d: %+v: Simulate = %v, want OpError{%d, %v}", seed, ops, err, bad, seqErr)
			}
			if after := dbState(got); after != before {
				t.Fatalf("seed %d: a rejected batch changed the database:\n%s\nwant\n%s", seed, after, before)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %+v: Simulate = %v, sequential application succeeds", seed, ops, err)
		}
		if after := dbState(got); after != before {
			t.Fatalf("seed %d: Simulate changed the database", seed)
		}
		if err := got.Commit(b); err != nil {
			t.Fatalf("seed %d: Commit = %v", seed, err)
		}
		if g, w := dbState(got), dbState(seq); g != w {
			t.Fatalf("seed %d: %+v:\nbatch\n%s\nsequential\n%s", seed, ops, g, w)
		}
		if !reflect.DeepEqual(b.RetractedPerOp, wantRetracted) {
			t.Fatalf("seed %d: %+v: RetractedPerOp = %v, want %v", seed, ops, b.RetractedPerOp, wantRetracted)
		}
	}
	// The draw must exercise both outcomes, not just one of them.
	if failures < 100 || failures > 1900 {
		t.Fatalf("%d of 2000 batches failed; the generator no longer covers both outcomes", failures)
	}
}

// TestSimulateCases pins the batch shapes the property test draws only
// by chance.
func TestSimulateCases(t *testing.T) {
	cases := []struct {
		name      string
		ops       []Op
		retracted []int
		want      string // dbState after the batch
	}{
		{"duplicates",
			[]Op{{Text: "s(a). s(a)."}, {Retract: true, Text: "p(a). p(a)."}},
			[]int{0, 1}, "p/1 q/2 s/1\np(b).\nq(a,b).\nq(b,c).\ns(a).\n"},
		{"retract then reassert",
			[]Op{{Retract: true, Text: "p(a)."}, {Text: "p(a)."}},
			[]int{1, 0}, "p/1 q/2\np(a).\np(b).\nq(a,b).\nq(b,c).\n"},
		{"absent retracts",
			[]Op{{Retract: true, Text: "p(c). r(a,b,c)."}},
			[]int{0}, "p/1 q/2\np(a).\np(b).\nq(a,b).\nq(b,c).\n"},
		// An absent relation has no arity to clash with: the retract is
		// a no-op, and the assert creates r at arity 2.
		{"retract absent then assert another arity",
			[]Op{{Retract: true, Text: "r(a)."}, {Text: "r(a,b)."}},
			[]int{0, 0}, "p/1 q/2 r/2\np(a).\np(b).\nq(a,b).\nq(b,c).\nr(a,b).\n"},
		// Net empty, yet the assert created the relation.
		{"assert then retract a new relation",
			[]Op{{Text: "s(a)."}, {Retract: true, Text: "s(a)."}},
			[]int{0, 1}, "p/1 q/2 s/1\np(a).\np(b).\nq(a,b).\nq(b,c).\n"},
	}
	for _, c := range cases {
		bank := term.NewBank(symtab.New())
		db := New(bank)
		if err := db.LoadText("p(a). p(b). q(a,b). q(b,c)."); err != nil {
			t.Fatal(err)
		}
		b, err := db.Simulate(c.ops, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := db.Commit(b); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(b.RetractedPerOp, c.retracted) {
			t.Errorf("%s: RetractedPerOp = %v, want %v", c.name, b.RetractedPerOp, c.retracted)
		}
		if got := dbState(db); got != c.want {
			t.Errorf("%s: state\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

// TestSimulateCheck: the extra per-fact rule rejects the first op with a
// fact it refuses, even where sequential application would accept it.
func TestSimulateCheck(t *testing.T) {
	bank := term.NewBank(symtab.New())
	db := New(bank)
	p := bank.Symbols().Intern("p")
	refuse := func(pred symtab.Sym, args []term.Value) error {
		if pred == p && len(args) != 1 {
			return errors.New("p is unary")
		}
		return nil
	}
	_, err := db.Simulate([]Op{{Text: "q(a)."}, {Retract: true, Text: "p(a,b)."}}, refuse)
	var oe *OpError
	if !errors.As(err, &oe) || oe.Index != 1 || oe.Err.Error() != "p is unary" {
		t.Fatalf("Simulate = %v, want OpError{1, p is unary}", err)
	}
	if n := len(db.Predicates()); n != 0 {
		t.Fatalf("rejected batch created %d relations", n)
	}
}
