package database

import (
	"testing"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

// TestStampTellsStatesApart: a stamp changes with every change to a
// relation's rows, survives reads, distinguishes a relation refilled to
// its old length, and is shared by a fork exactly until it writes.
func TestStampTellsStatesApart(t *testing.T) {
	bank := term.NewBank(symtab.New())
	db := New(bank)
	if err := db.LoadText("up(a,b). up(b,c). down(x,y)."); err != nil {
		t.Fatal(err)
	}
	up, down := bank.Symbols().Intern("up"), bank.Symbols().Intern("down")
	sym := func(s string) term.Value { return term.Symbol(bank.Symbols().Intern(s)) }

	if (*Relation)(nil).Stamp() != (Stamp{}) {
		t.Error("a nil relation must carry the zero stamp")
	}
	s0 := db.Relation(up).Stamp()
	if s0 == (Stamp{}) || s0 == db.Relation(down).Stamp() {
		t.Errorf("stamps %v / %v: want non-zero and distinct per relation", s0, db.Relation(down).Stamp())
	}
	db.Relation(up).Contains(Tuple{sym("a"), sym("b")})
	db.Relation(up).IndexFor(1, 0)
	if db.Relation(up).Stamp() != s0 {
		t.Error("reads moved the stamp")
	}
	if added, _ := db.Assert(up, Tuple{sym("a"), sym("b")}); added || db.Relation(up).Stamp() != s0 {
		t.Error("re-asserting a present fact moved the stamp")
	}
	if _, err := db.Assert(up, Tuple{sym("c"), sym("d")}); err != nil {
		t.Fatal(err)
	}
	s1 := db.Relation(up).Stamp()
	if s1 == s0 {
		t.Error("an insert kept the stamp")
	}
	if _, err := db.Retract(up, Tuple{sym("c"), sym("d")}); err != nil {
		t.Fatal(err)
	}
	if s := db.Relation(up).Stamp(); s == s1 || s == s0 {
		t.Errorf("a retraction kept a stamp (%v after %v, %v)", s, s1, s0)
	}

	// Reset and refill to the same length: pointer and Len agree with the
	// old state, the stamp does not.
	r := NewRelation(1)
	r.Insert(Tuple{sym("a")})
	before := r.Stamp()
	r.Reset()
	r.Insert(Tuple{sym("b")})
	if r.Stamp() == before {
		t.Error("Reset + refill to the same length kept the stamp")
	}

	fork := db.Fork()
	if fork.Relation(up).Stamp() != db.Relation(up).Stamp() {
		t.Error("an unwritten fork must share its parent's stamps")
	}
	parent := db.Relation(up).Stamp()
	if _, err := fork.Assert(down, Tuple{sym("y"), sym("z")}); err != nil {
		t.Fatal(err)
	}
	if fork.Relation(up).Stamp() != parent {
		t.Error("a write to down moved the fork's stamp of up")
	}
	if _, err := fork.Assert(up, Tuple{sym("c"), sym("a")}); err != nil {
		t.Fatal(err)
	}
	if fork.Relation(up).Stamp() == parent || db.Relation(up).Stamp() != parent {
		t.Error("a fork's write to up must move its own stamp and leave the parent's")
	}
}
