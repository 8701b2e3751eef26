package database

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

func newDB() *Database { return New(term.NewBank(symtab.New())) }

func sym(db *Database, s string) term.Value {
	return term.Symbol(db.Bank().Symbols().Intern(s))
}

func TestInsertDedup(t *testing.T) {
	r := NewRelation(2)
	a, b := term.Int(1), term.Int(2)
	if !r.Insert(Tuple{a, b}) {
		t.Error("first insert reported duplicate")
	}
	if r.Insert(Tuple{a, b}) {
		t.Error("second insert reported new")
	}
	if !r.Insert(Tuple{b, a}) {
		t.Error("distinct tuple reported duplicate")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if !r.Contains(Tuple{a, b}) || r.Contains(Tuple{a, a}) {
		t.Error("Contains wrong")
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	r := NewRelation(1)
	tu := Tuple{term.Int(1)}
	r.Insert(tu)
	tu[0] = term.Int(9)
	if r.At(0)[0] != term.Int(1) {
		t.Error("Insert did not copy the tuple")
	}
}

func TestProbe(t *testing.T) {
	r := NewRelation(2)
	for i := int64(0); i < 10; i++ {
		r.Insert(Tuple{term.Int(i % 3), term.Int(i)})
	}
	// Index on column 0.
	got := r.ProbeIDs(1<<0, []term.Value{term.Int(1)})
	if len(got) != 3 { // i = 1, 4, 7
		t.Fatalf("Probe returned %d rows, want 3", len(got))
	}
	for _, ix := range got {
		if r.At(int(ix))[0] != term.Int(1) {
			t.Error("probe returned non-matching tuple")
		}
	}
	// Index on both columns.
	got = r.ProbeIDs(3, []term.Value{term.Int(2), term.Int(5)})
	if len(got) != 1 || r.At(int(got[0]))[1] != term.Int(5) {
		t.Errorf("two-column probe = %v", got)
	}
	// Missing key.
	if got := r.ProbeIDs(3, []term.Value{term.Int(9), term.Int(9)}); len(got) != 0 {
		t.Errorf("probe of absent key returned %v", got)
	}
}

func TestIndexMaintainedAfterBuild(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{term.Int(1), term.Int(10)})
	_ = r.ProbeIDs(1, []term.Value{term.Int(1)}) // build index
	r.Insert(Tuple{term.Int(1), term.Int(11)})
	got := r.ProbeIDs(1, []term.Value{term.Int(1)})
	if len(got) != 2 {
		t.Errorf("index not maintained: probe = %v", got)
	}
}

func TestProbeZeroMaskScansAll(t *testing.T) {
	r := NewRelation(1)
	r.Insert(Tuple{term.Int(1)})
	r.Insert(Tuple{term.Int(2)})
	if got := r.ProbeIDs(0, nil); len(got) != 2 {
		t.Errorf("zero-mask probe = %v", got)
	}
}

func TestProbeMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := NewRelation(3)
		for i := 0; i < 50; i++ {
			rel.Insert(Tuple{
				term.Int(int64(r.Intn(4))),
				term.Int(int64(r.Intn(4))),
				term.Int(int64(r.Intn(4))),
			})
		}
		mask := uint64(r.Intn(7) + 1)
		var probe []term.Value
		want := map[int32]bool{}
		target := []term.Value{
			term.Int(int64(r.Intn(4))),
			term.Int(int64(r.Intn(4))),
			term.Int(int64(r.Intn(4))),
		}
		for c := 0; c < 3; c++ {
			if mask&(1<<uint(c)) != 0 {
				probe = append(probe, target[c])
			}
		}
		for i, tu := range rel.Tuples() {
			match := true
			for c := 0; c < 3; c++ {
				if mask&(1<<uint(c)) != 0 && tu[c] != target[c] {
					match = false
					break
				}
			}
			if match {
				want[int32(i)] = true
			}
		}
		got := rel.ProbeIDs(mask, probe)
		if len(got) != len(want) {
			return false
		}
		for _, ix := range got {
			if !want[ix] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestResetKeepsIndexesConsistent: after Reset and reinsert, Probe must
// agree with a linear scan for every index mask that was built before
// the Reset — stale index entries would resurrect deleted tuples or hide
// new ones.
func TestResetKeepsIndexesConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := NewRelation(3)
		randTuple := func() Tuple {
			return Tuple{
				term.Int(int64(rng.Intn(3))),
				term.Int(int64(rng.Intn(3))),
				term.Int(int64(rng.Intn(3))),
			}
		}
		for i := 0; i < 30; i++ {
			rel.Insert(randTuple())
		}
		// Build every possible index before the reset.
		masks := []uint64{1, 2, 3, 4, 5, 6, 7}
		for _, m := range masks {
			rel.ProbeIDs(m, make([]term.Value, popcount(m)))
		}
		rel.Reset()
		if rel.Len() != 0 {
			return false
		}
		for i := 0; i < 25; i++ {
			rel.Insert(randTuple())
		}
		// Every previously built index must agree with a linear scan.
		for _, mask := range masks {
			target := randTuple()
			var probe []term.Value
			for c := 0; c < 3; c++ {
				if mask&(1<<uint(c)) != 0 {
					probe = append(probe, target[c])
				}
			}
			want := map[int32]bool{}
			for i, tu := range rel.Tuples() {
				match := true
				for c := 0; c < 3; c++ {
					if mask&(1<<uint(c)) != 0 && tu[c] != target[c] {
						match = false
						break
					}
				}
				if match {
					want[int32(i)] = true
				}
			}
			got := rel.ProbeIDs(mask, probe)
			if len(got) != len(want) {
				return false
			}
			for _, ix := range got {
				if !want[ix] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

func TestDatabaseEnsureArityMismatch(t *testing.T) {
	db := newDB()
	p := db.Bank().Symbols().Intern("p")
	if _, err := db.Ensure(p, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ensure(p, 3); err == nil {
		t.Error("arity mismatch not reported")
	}
}

func TestAssertStringsAndFormat(t *testing.T) {
	db := newDB()
	syms := db.Bank().Symbols()
	for _, f := range [][3]string{{"up", "a", "b"}, {"up", "b", "c"}, {"flat", "c", "d"}} {
		tup := Tuple{term.Symbol(syms.Intern(f[1])), term.Symbol(syms.Intern(f[2]))}
		if _, err := db.Assert(syms.Intern(f[0]), tup); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Format()
	want := "flat(c,d).\nup(a,b).\nup(b,c).\n"
	if got != want {
		t.Errorf("Format:\n%s\nwant:\n%s", got, want)
	}
	if db.FactCount() != 3 {
		t.Errorf("FactCount = %d", db.FactCount())
	}
}

func TestLoadTextRoundTrip(t *testing.T) {
	db := newDB()
	src := "up(a,b). up(b,c). flat(c,d). n(7). pair(x,[1,2]).\n"
	if err := db.LoadText(src); err != nil {
		t.Fatal(err)
	}
	db2 := newDB()
	if err := db2.LoadText(db.Format()); err != nil {
		t.Fatal(err)
	}
	if db.Format() != db2.Format() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", db.Format(), db2.Format())
	}
}

func TestLoadTextRejectsRulesAndQueries(t *testing.T) {
	db := newDB()
	if err := db.LoadText("p(X) :- q(X)."); err == nil || !strings.Contains(err.Error(), "ground fact") {
		t.Errorf("rule accepted: %v", err)
	}
	if err := db.LoadText("?- p(X)."); err == nil {
		t.Error("query accepted")
	}
	if err := db.LoadText("p(X)."); err == nil {
		t.Error("non-ground fact accepted")
	}
}

func TestSortedDeterministic(t *testing.T) {
	db := newDB()
	// term.Compare orders symbols by intern index, so intern in order.
	sym(db, "a")
	sym(db, "b")
	rel := NewRelation(2)
	rel.Insert(Tuple{sym(db, "b"), term.Int(2)})
	rel.Insert(Tuple{sym(db, "a"), term.Int(1)})
	rel.Insert(Tuple{term.Int(0), term.Int(0)})
	s := rel.Sorted()
	if s[0][0] != term.Int(0) {
		t.Error("ints should sort before symbols")
	}
	if s[1][0] != sym(db, "a") || s[2][0] != sym(db, "b") {
		t.Error("symbols not sorted by intern order")
	}
}
