package engine

import (
	"fmt"
	"testing"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

type solveFixture struct {
	bank *term.Bank
	db   *database.Database
	m    *Matcher
}

func newSolveFixture(t *testing.T, facts string) *solveFixture {
	t.Helper()
	bank := term.NewBank(symtab.New())
	db := database.New(bank)
	if err := db.LoadText(facts); err != nil {
		t.Fatal(err)
	}
	return &solveFixture{bank: bank, db: db, m: NewMatcher(bank, db, nil)}
}

func (f *solveFixture) body(t *testing.T, src string) []ast.Literal {
	t.Helper()
	r, err := parser.ParseRule(f.bank, "dummy :- "+src+".")
	if err != nil {
		t.Fatal(err)
	}
	return r.Body
}

func (f *solveFixture) syms(names ...string) []symtab.Sym {
	out := make([]symtab.Sym, len(names))
	for i, n := range names {
		out[i] = f.bank.Symbols().Intern(n)
	}
	return out
}

func (f *solveFixture) val(s string) term.Value {
	return term.Symbol(f.bank.Symbols().Intern(s))
}

func collect(t *testing.T, ps *PreparedSolve, bound []term.Value) [][]term.Value {
	t.Helper()
	var out [][]term.Value
	err := ps.Solve(bound, func(vals []term.Value) error {
		out = append(out, append([]term.Value(nil), vals...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPreparedSolveBasic(t *testing.T) {
	f := newSolveFixture(t, "up(a,b). up(a,c). up(b,d).")
	ps, err := f.m.Prepare(f.body(t, "up(X,Y)"), f.syms("X"), f.syms("Y"))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ps, []term.Value{f.val("a")})
	if len(got) != 2 {
		t.Fatalf("solutions = %d, want 2", len(got))
	}
	// Re-solving with another binding reuses the compiled plan.
	got = collect(t, ps, []term.Value{f.val("b")})
	if len(got) != 1 || got[0][0] != f.val("d") {
		t.Errorf("solutions for b = %v", got)
	}
	// No solutions.
	if got := collect(t, ps, []term.Value{f.val("zzz")}); len(got) != 0 {
		t.Errorf("solutions for zzz = %v", got)
	}
}

func TestPreparedSolveConjunction(t *testing.T) {
	f := newSolveFixture(t, "up(a,b). hop(b,c). hop(b,d). up(a,e).")
	ps, err := f.m.Prepare(f.body(t, "up(X,M), hop(M,Y)"), f.syms("X"), f.syms("Y", "M"))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ps, []term.Value{f.val("a")})
	if len(got) != 2 {
		t.Fatalf("solutions = %v", got)
	}
	for _, row := range got {
		if row[1] != f.val("b") {
			t.Errorf("M = %v, want b", f.bank.Format(row[1]))
		}
	}
}

func TestPreparedSolveBoundVarPassthrough(t *testing.T) {
	f := newSolveFixture(t, "up(a,b).")
	// X is both bound and wanted.
	ps, err := f.m.Prepare(f.body(t, "up(X,Y)"), f.syms("X"), f.syms("X", "Y"))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ps, []term.Value{f.val("a")})
	if len(got) != 1 || got[0][0] != f.val("a") || got[0][1] != f.val("b") {
		t.Errorf("solutions = %v", got)
	}
}

func TestPreparedSolveEmptyBody(t *testing.T) {
	f := newSolveFixture(t, "up(a,b).")
	ps, err := f.m.Prepare(nil, f.syms("X"), f.syms("X"))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ps, []term.Value{f.val("q")})
	if len(got) != 1 || got[0][0] != f.val("q") {
		t.Errorf("empty body solutions = %v", got)
	}
}

func TestPreparedSolveBuiltins(t *testing.T) {
	f := newSolveFixture(t, "n(1). n(2). n(3).")
	ps, err := f.m.Prepare(f.body(t, "n(Y), Y > X"), f.syms("X"), f.syms("Y"))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ps, []term.Value{term.Int(1)})
	if len(got) != 2 {
		t.Errorf("solutions = %v", got)
	}
	ps2, err := f.m.Prepare(f.body(t, "succ(X,Y)"), f.syms("X"), f.syms("Y"))
	if err != nil {
		t.Fatal(err)
	}
	got = collect(t, ps2, []term.Value{term.Int(41)})
	if len(got) != 1 || got[0][0] != term.Int(42) {
		t.Errorf("succ solutions = %v", got)
	}
}

func TestPreparedSolveNegation(t *testing.T) {
	f := newSolveFixture(t, "up(a,b). up(a,c). blocked(b).")
	ps, err := f.m.Prepare(f.body(t, "up(X,Y), not blocked(Y)"), f.syms("X"), f.syms("Y"))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ps, []term.Value{f.val("a")})
	if len(got) != 1 || got[0][0] != f.val("c") {
		t.Errorf("solutions = %v", got)
	}
}

func TestPreparedSolveCompoundBinding(t *testing.T) {
	f := newSolveFixture(t, "holds(box(a),1). holds(box(b),2).")
	ps, err := f.m.Prepare(f.body(t, "holds(box(X),N)"), f.syms("X"), f.syms("N"))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ps, []term.Value{f.val("b")})
	if len(got) != 1 || got[0][0] != term.Int(2) {
		t.Errorf("solutions = %v", got)
	}
}

func TestPreparedSolveUnsafeWantRejected(t *testing.T) {
	f := newSolveFixture(t, "up(a,b).")
	if _, err := f.m.Prepare(f.body(t, "up(X,Y)"), f.syms("X"), f.syms("Z")); err == nil {
		t.Error("unbound want variable accepted")
	}
}

func TestPreparedSolveWrongArity(t *testing.T) {
	f := newSolveFixture(t, "up(a,b).")
	ps, err := f.m.Prepare(f.body(t, "up(X,Y)"), f.syms("X"), f.syms("Y"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Solve([]term.Value{}, func([]term.Value) error { return nil }); err == nil {
		t.Error("wrong bound-value count accepted")
	}
}

func TestPreparedSolveDerivedOverlay(t *testing.T) {
	bank := term.NewBank(symtab.New())
	db := database.New(bank)
	if err := db.LoadText("base(a)."); err != nil {
		t.Fatal(err)
	}
	derived := map[symtab.Sym]*database.Relation{}
	d := database.NewRelation(1)
	d.Insert(database.Tuple{term.Symbol(bank.Symbols().Intern("x"))})
	derived[bank.Symbols().Intern("extra")] = d
	m := NewMatcher(bank, db, derived)
	r, err := parser.ParseRule(bank, "dummy :- extra(Y).")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := m.Prepare(r.Body, nil, []symtab.Sym{bank.Symbols().Intern("Y")})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ps.Solve(nil, func(vals []term.Value) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("derived relation not visible: %d solutions", n)
	}
}

// TestMatcherOneShotSolve: a single lookup is one Prepare and one Solve.
func TestMatcherOneShotSolve(t *testing.T) {
	f := newSolveFixture(t, "up(a,b). up(b,c).")
	ps, err := f.m.Prepare(f.body(t, "up(X,Y)"), f.syms("X"), f.syms("Y"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = ps.Solve([]term.Value{f.val("a")}, func(vals []term.Value) error {
		got = append(got, f.bank.Format(vals[0]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[b]" {
		t.Errorf("got %v", got)
	}
	if f.m.Solves == 0 {
		t.Error("Solves counter not incremented")
	}
}

func TestMatchTermsAndInstantiate(t *testing.T) {
	bank := term.NewBank(symtab.New())
	x := bank.Symbols().Intern("X")
	f := bank.Symbols().Intern("f")
	pat := []ast.Term{ast.Mk(bank, f, ast.V(x), ast.C(term.Int(1)))}
	val := bank.Compound(f, term.Int(7), term.Int(1))
	bound := map[symtab.Sym]term.Value{}
	if !MatchTerms(bank, pat, []term.Value{val}, bound) {
		t.Fatal("match failed")
	}
	if bound[x] != term.Int(7) {
		t.Errorf("X = %v", bound[x])
	}
	// Mismatch in a constant position.
	bad := bank.Compound(f, term.Int(7), term.Int(2))
	if MatchTerms(bank, pat, []term.Value{bad}, map[symtab.Sym]term.Value{}) {
		t.Error("mismatched constant accepted")
	}
	// Repeated variable consistency.
	pat2 := []ast.Term{ast.V(x), ast.V(x)}
	if MatchTerms(bank, pat2, []term.Value{term.Int(1), term.Int(2)}, map[symtab.Sym]term.Value{}) {
		t.Error("inconsistent repeated variable accepted")
	}
	// InstantiateTerm builds compounds and reports unbound vars.
	got, ok := InstantiateTerm(bank, pat[0], bound)
	if !ok || got != val {
		t.Errorf("InstantiateTerm = %v, %v", got, ok)
	}
	if _, ok := InstantiateTerm(bank, ast.V(bank.Symbols().Intern("Q")), bound); ok {
		t.Error("unbound variable instantiated")
	}
}

// TestSolveRowsMatchesSolve: a batch of binding rows — patterns on both
// sides, pass-through tags — delivers, per row and in row order, exactly
// what one Solve per row delivers; a row that does not match its given
// pattern delivers nothing.
func TestSolveRowsMatchesSolve(t *testing.T) {
	var facts string
	for i := 0; i < 40; i++ {
		facts += fmt.Sprintf("holds(box(k%d),v%d). holds(box(k%d),w%d). next(v%d,v%d).\n", i, i, i, i, i, i+1)
	}
	f := newSolveFixture(t, facts)
	r, err := parser.ParseRule(f.bank, "out(pair(N,M)) :- in(box(X)), holds(box(X),N), next(N,M).")
	if err != nil {
		t.Fatal(err)
	}
	given, want, body := r.Body[0].Args, r.Head.Args, r.Body[1:]
	batched, err := f.m.PrepareTerms(body, given, want, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := f.m.PrepareTerms(body, given, want, 2)
	if err != nil {
		t.Fatal(err)
	}
	box := f.bank.Symbols().Intern("box")
	var rows []term.Value
	const n = 600 // several operator batches
	for i := 0; i < n; i++ {
		key := f.bank.Compound(box, f.val(fmt.Sprintf("k%d", i%45))) // k40..k44 hold nothing
		if i%7 == 0 {
			key = f.val("unboxed") // does not match box(X)
		}
		rows = append(rows, key, term.Int(int64(i)), term.Int(int64(-i)))
	}
	var got, ref [][]term.Value
	keep := func(dst *[][]term.Value) func([]term.Value) error {
		return func(vals []term.Value) error {
			*dst = append(*dst, append([]term.Value(nil), vals...))
			return nil
		}
	}
	if err := batched.SolveRows(rows, n, keep(&got)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := single.Solve(rows[3*i:3*i+3], keep(&ref)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ref) == 0 || len(got) != len(ref) {
		t.Fatalf("batched run delivered %d solutions, row-at-a-time %d", len(got), len(ref))
	}
	for i := range ref {
		if len(got[i]) != 3 || got[i][0] != ref[i][0] || got[i][1] != ref[i][1] || got[i][2] != ref[i][2] {
			t.Fatalf("solution %d: batched %v, row-at-a-time %v", i, got[i], ref[i])
		}
		if got[i][1].AsInt() != -got[i][2].AsInt() {
			t.Fatalf("solution %d: tags %v/%v are not one row's", i, got[i][1], got[i][2])
		}
	}
	if f.m.Solves != 2*n {
		t.Errorf("Solves = %d, want one per row on both sides (%d)", f.m.Solves, 2*n)
	}
	if err := batched.SolveRows(rows[:5], 2, keep(&got)); err == nil {
		t.Error("a ragged row buffer must be refused")
	}
}
