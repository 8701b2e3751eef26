package ast

import (
	"strings"
	"testing"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

func newBank() *term.Bank { return term.NewBank(symtab.New()) }

func sym(b *term.Bank, s string) symtab.Sym { return b.Symbols().Intern(s) }

func TestMkInternsGroundCompounds(t *testing.T) {
	b := newBank()
	f := sym(b, "f")
	ground := Mk(b, f, C(term.Int(1)), C(term.Int(2)))
	if ground.Kind != Const {
		t.Fatalf("ground compound kind = %d, want Const", ground.Kind)
	}
	nonGround := Mk(b, f, C(term.Int(1)), V(sym(b, "X")))
	if nonGround.Kind != Comp {
		t.Fatalf("non-ground compound kind = %d, want Comp", nonGround.Kind)
	}
	// Interning again yields the same handle.
	again := Mk(b, f, C(term.Int(1)), C(term.Int(2)))
	if again.Value != ground.Value {
		t.Error("ground compound not interned consistently")
	}
}

func TestMkListGroundAndOpen(t *testing.T) {
	b := newBank()
	g := MkList(b, []Term{C(term.Int(1)), C(term.Int(2))}, NilTerm(b))
	if g.Kind != Const {
		t.Error("ground list not interned")
	}
	if got := FormatTerm(b, g); got != "[1,2]" {
		t.Errorf("format = %q", got)
	}
	open := MkList(b, []Term{C(term.Int(1))}, V(sym(b, "T")))
	if open.Kind != Comp {
		t.Error("open list should be Comp")
	}
	if got := FormatTerm(b, open); got != "[1|T]" {
		t.Errorf("format = %q", got)
	}
}

func TestFormatListWithGroundTailSplices(t *testing.T) {
	b := newBank()
	groundTail := C(b.List(term.Int(2), term.Int(3)))
	l := MkList(b, []Term{V(sym(b, "X"))}, groundTail)
	if got := FormatTerm(b, l); got != "[X,2,3]" {
		t.Errorf("format = %q, want [X,2,3]", got)
	}
}

func TestTermEqual(t *testing.T) {
	b := newBank()
	f := sym(b, "f")
	x, y := V(sym(b, "X")), V(sym(b, "Y"))
	cases := []struct {
		a, bb Term
		want  bool
	}{
		{C(term.Int(1)), C(term.Int(1)), true},
		{C(term.Int(1)), C(term.Int(2)), false},
		{x, x, true},
		{x, y, false},
		{Mk(b, f, x), Mk(b, f, x), true},
		{Mk(b, f, x), Mk(b, f, y), false},
		{Mk(b, f, x), x, false},
	}
	for i, c := range cases {
		if c.a.Equal(c.bb) != c.want {
			t.Errorf("case %d: Equal = %v", i, !c.want)
		}
	}
}

func TestSubstIntersGroundResults(t *testing.T) {
	b := newBank()
	f := sym(b, "f")
	x := sym(b, "X")
	tm := Mk(b, f, V(x), C(term.Int(7)))
	s := map[symtab.Sym]Term{x: C(term.Int(3))}
	got := tm.Subst(b, s)
	if got.Kind != Const {
		t.Fatal("fully substituted compound not interned")
	}
	if FormatTerm(b, got) != "f(3,7)" {
		t.Errorf("subst result = %s", FormatTerm(b, got))
	}
	// Unmapped variables stay.
	tm2 := Mk(b, f, V(x), V(sym(b, "Y")))
	got2 := tm2.Subst(b, s)
	if got2.Kind != Comp {
		t.Error("partially substituted compound should stay Comp")
	}
}

func TestRename(t *testing.T) {
	b := newBank()
	x, x2 := sym(b, "X"), sym(b, "X_2")
	l := Atom(sym(b, "p"), V(x), Mk(b, sym(b, "f"), V(x)))
	r := l.Rename(b, func(s symtab.Sym) symtab.Sym {
		if s == x {
			return x2
		}
		return s
	})
	if got := FormatLiteral(b, r); got != "p(X_2,f(X_2))" {
		t.Errorf("renamed = %s", got)
	}
}

func TestLiteralVarsOrderAndDedup(t *testing.T) {
	b := newBank()
	x, y := sym(b, "X"), sym(b, "Y")
	l := Atom(sym(b, "p"), V(x), V(y), V(x), Mk(b, sym(b, "f"), V(y)))
	vs := l.Vars()
	if len(vs) != 2 || vs[0] != x || vs[1] != y {
		t.Errorf("Vars = %v", vs)
	}
}

func TestRuleVarsHeadFirst(t *testing.T) {
	b := newBank()
	x, y, z := sym(b, "X"), sym(b, "Y"), sym(b, "Z")
	r := Rule{
		Head: Atom(sym(b, "p"), V(y)),
		Body: []Literal{Atom(sym(b, "q"), V(x), V(y), V(z))},
	}
	vs := r.Vars()
	if len(vs) != 3 || vs[0] != y || vs[1] != x || vs[2] != z {
		t.Errorf("Vars = %v", vs)
	}
}

func TestIsFact(t *testing.T) {
	b := newBank()
	p := sym(b, "p")
	fact := Rule{Head: Atom(p, C(term.Int(1)))}
	if !fact.IsFact() {
		t.Error("ground bodiless rule not a fact")
	}
	withVar := Rule{Head: Atom(p, V(sym(b, "X")))}
	if withVar.IsFact() {
		t.Error("non-ground head accepted as fact")
	}
	withBody := Rule{Head: Atom(p, C(term.Int(1))), Body: []Literal{Atom(p, C(term.Int(2)))}}
	if withBody.IsFact() {
		t.Error("rule with body accepted as fact")
	}
}

func TestProgramHelpers(t *testing.T) {
	b := newBank()
	p := NewProgram(b)
	pp, q := sym(b, "p"), sym(b, "q")
	p.Add(
		Rule{Head: Atom(q, C(term.Int(1)))},
		Rule{Head: Atom(pp, C(term.Int(1)))},
		Rule{Head: Atom(pp, C(term.Int(2)))},
	)
	preds := p.Predicates()
	if len(preds) != 2 || preds[0] != pp || preds[1] != q {
		t.Errorf("Predicates = %v (want sorted p,q)", preds)
	}
	clone := p.Clone()
	clone.Rules[0].Head.Pred = sym(b, "z")
	if p.Rules[0].Head.Pred != q {
		t.Error("Clone shares rule storage")
	}
}

func TestFormatRuleShapes(t *testing.T) {
	b := newBank()
	p, q := sym(b, "p"), sym(b, "q")
	x := V(sym(b, "X"))
	cases := []struct {
		r    Rule
		want string
	}{
		{Rule{Head: Atom(p)}, "p."},
		{Rule{Head: Atom(p, C(term.Int(1)))}, "p(1)."},
		{Rule{Head: Atom(p, x), Body: []Literal{Atom(q, x)}}, "p(X) :- q(X)."},
		{Rule{Head: Atom(p, x), Body: []Literal{{Pred: q, Args: []Term{x}, Negated: true}}}, "p(X) :- not q(X)."},
		{Rule{Head: Atom(p, x), Body: []Literal{
			Atom(sym(b, BuiltinNeq), x, C(term.Int(0))),
		}}, "p(X) :- X != 0."},
		{Rule{Head: Atom(p, x), Body: []Literal{
			Atom(sym(b, BuiltinSucc), x, C(term.Int(1))),
		}}, "p(X) :- succ(X,1)."},
	}
	for _, c := range cases {
		if got := FormatRule(b, c.r); got != c.want {
			t.Errorf("FormatRule = %q, want %q", got, c.want)
		}
	}
}

func TestFormatQueryAndProgram(t *testing.T) {
	b := newBank()
	p := NewProgram(b)
	pr := sym(b, "p")
	p.Add(Rule{Head: Atom(pr, C(term.Int(1)))})
	if got := p.Format(); got != "p(1).\n" {
		t.Errorf("Format = %q", got)
	}
	q := Query{Goal: Atom(pr, V(sym(b, "X")))}
	if got := FormatQuery(b, q); got != "?- p(X)." {
		t.Errorf("FormatQuery = %q", got)
	}
	if p.String() != p.Format() {
		t.Error("String != Format")
	}
}

func TestIsBuiltinName(t *testing.T) {
	for _, n := range []string{"=", "!=", "<", "<=", ">", ">=", "succ"} {
		if !IsBuiltinName(n) {
			t.Errorf("%q not recognized as builtin", n)
		}
	}
	for _, n := range []string{"p", "up", "cons", ""} {
		if IsBuiltinName(n) {
			t.Errorf("%q wrongly recognized as builtin", n)
		}
	}
}

func TestRuleEqualAndSubst(t *testing.T) {
	b := newBank()
	p, q := sym(b, "p"), sym(b, "q")
	x := sym(b, "X")
	r1 := Rule{Head: Atom(p, V(x)), Body: []Literal{Atom(q, V(x))}}
	r2 := Rule{Head: Atom(p, V(x)), Body: []Literal{Atom(q, V(x))}}
	if !r1.Equal(r2) {
		t.Error("identical rules not Equal")
	}
	s := map[symtab.Sym]Term{x: C(term.Int(9))}
	r3 := r1.Subst(b, s)
	if r1.Equal(r3) {
		t.Error("substitution did not change the rule")
	}
	if got := FormatRule(b, r3); got != "p(9) :- q(9)." {
		t.Errorf("subst rule = %q", got)
	}
}

func TestFormatLongProgramIsStable(t *testing.T) {
	b := newBank()
	p := NewProgram(b)
	pr := sym(b, "edge")
	for i := 0; i < 50; i++ {
		p.Add(Rule{Head: Atom(pr, C(term.Int(int64(i))), C(term.Int(int64(i+1))))})
	}
	f1, f2 := p.Format(), p.Format()
	if f1 != f2 {
		t.Error("Format not deterministic")
	}
	if strings.Count(f1, "\n") != 50 {
		t.Errorf("line count = %d", strings.Count(f1, "\n"))
	}
}
