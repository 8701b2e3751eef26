package term

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lincount/internal/symtab"
)

func newBank() *Bank { return NewBank(symtab.New()) }

func TestIntRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40)} {
		v := Int(n)
		if !v.IsInt() || v.AsInt() != n {
			t.Errorf("Int(%d) round-trip failed: %v", n, v)
		}
	}
}

func TestIntOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int on 63-bit value did not panic")
		}
	}()
	Int(1 << 62)
}

func TestSymbolRoundTrip(t *testing.T) {
	b := newBank()
	s := b.Symbols().Intern("abc")
	v := Symbol(s)
	if !v.IsSymbol() || v.AsSymbol() != s {
		t.Errorf("Symbol round-trip failed: %v", v)
	}
	if v.IsInt() || v.IsCompound() {
		t.Error("symbol value reports wrong tags")
	}
}

func TestCompoundHashConsing(t *testing.T) {
	b := newBank()
	f := b.Symbols().Intern("f")
	a, c := Int(1), Int(2)
	v1 := b.Compound(f, a, c)
	v2 := b.Compound(f, a, c)
	if v1 != v2 {
		t.Error("identical compounds interned to different handles")
	}
	v3 := b.Compound(f, c, a)
	if v1 == v3 {
		t.Error("distinct compounds interned to the same handle")
	}
	got := b.Deref(v1)
	if got.Functor != f || len(got.Args) != 2 || got.Args[0] != a || got.Args[1] != c {
		t.Errorf("Deref returned %+v", got)
	}
}

func TestZeroArityCompoundDistinctFromSymbol(t *testing.T) {
	b := newBank()
	f := b.Symbols().Intern("f")
	if b.Compound(f) == Symbol(f) {
		t.Error("f() aliases the bare symbol f")
	}
}

func TestDerefIndexAndCompIndex(t *testing.T) {
	b := newBank()
	f := b.Symbols().Intern("f")
	inner := b.Compound(f, Int(1))
	outer := b.Compound(f, inner, Int(2))
	// Arguments intern before their parents: CompIndex is monotone.
	if inner.CompIndex() >= outer.CompIndex() {
		t.Errorf("inner index %d not below outer %d", inner.CompIndex(), outer.CompIndex())
	}
	got := b.DerefIndex(outer.CompIndex())
	if got.Functor != f || len(got.Args) != 2 || got.Args[0] != inner {
		t.Errorf("DerefIndex = %+v", got)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("CompIndex on non-compound did not panic")
		}
	}()
	Int(3).CompIndex()
}

func TestListHelpers(t *testing.T) {
	b := newBank()
	elems := []Value{Int(1), Int(2), Int(3)}
	l := b.List(elems...)
	got, ok := b.ListElems(l)
	if !ok || len(got) != 3 {
		t.Fatalf("ListElems = %v, %v", got, ok)
	}
	for i := range elems {
		if got[i] != elems[i] {
			t.Errorf("elem %d = %v want %v", i, got[i], elems[i])
		}
	}
	if !b.IsNil(b.Nil()) {
		t.Error("Nil not recognized")
	}
	if b.List() != b.Nil() {
		t.Error("List() != Nil()")
	}
	// Improper list.
	improper := b.Cons(Int(1), Int(2))
	if _, ok := b.ListElems(improper); ok {
		t.Error("ListElems accepted an improper list")
	}
}

func TestListSharingIsStructural(t *testing.T) {
	b := newBank()
	tail := b.List(Int(2), Int(3))
	l1 := b.Cons(Int(1), tail)
	l2 := b.List(Int(1), Int(2), Int(3))
	if l1 != l2 {
		t.Error("cons onto shared tail differs from freshly built list")
	}
}

func TestFormat(t *testing.T) {
	b := newBank()
	a := Symbol(b.Symbols().Intern("a"))
	f := b.Symbols().Intern("f")
	cases := []struct {
		v    Value
		want string
	}{
		{Int(7), "7"},
		{Int(-7), "-7"},
		{a, "a"},
		{b.Compound(f, Int(1), a), "f(1,a)"},
		{b.Nil(), "[]"},
		{b.List(Int(1), Int(2)), "[1,2]"},
		{b.Cons(Int(1), Int(2)), "[1|2]"},
		{b.List(b.Compound(f, a)), "[f(a)]"},
	}
	for _, c := range cases {
		if got := b.Format(c.v); got != c.want {
			t.Errorf("Format = %q want %q", got, c.want)
		}
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	b := newBank()
	vals := []Value{
		Int(-5), Int(0), Int(9),
		Symbol(b.Symbols().Intern("a")), Symbol(b.Symbols().Intern("b")),
		b.List(Int(1)), b.List(Int(2)),
	}
	for _, x := range vals {
		if Compare(x, x) != 0 {
			t.Errorf("Compare(%v,%v) != 0", x, x)
		}
		for _, y := range vals {
			if Compare(x, y) != -Compare(y, x) {
				t.Errorf("Compare not antisymmetric on %v,%v", x, y)
			}
			if (x == y) != (Compare(x, y) == 0) {
				t.Errorf("Compare zero iff equal violated on %v,%v", x, y)
			}
		}
	}
}

// randomGround builds a random ground term, exercising hash-consing.
func randomGround(b *Bank, r *rand.Rand, depth int) Value {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return Int(int64(r.Intn(10)))
		}
		return Symbol(b.Symbols().Intern(string(rune('a' + r.Intn(5)))))
	}
	f := b.Symbols().Intern(string(rune('f' + r.Intn(3))))
	n := r.Intn(3)
	args := make([]Value, n)
	for i := range args {
		args[i] = randomGround(b, r, depth-1)
	}
	return b.Compound(f, args...)
}

// rebuild re-interns v (possibly into another bank) and must produce a handle
// equal to interning the same structure again.
func rebuild(src, dst *Bank, v Value) Value {
	switch {
	case v.IsInt():
		return v
	case v.IsSymbol():
		return Symbol(dst.Symbols().Intern(src.Symbols().String(v.AsSymbol())))
	default:
		c := src.Deref(v)
		args := make([]Value, len(c.Args))
		for i, a := range c.Args {
			args[i] = rebuild(src, dst, a)
		}
		return dst.Compound(dst.Symbols().Intern(src.Symbols().String(c.Functor)), args...)
	}
}

func TestHashConsEqualityIsStructuralEquality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	b := newBank()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomGround(b, r, 4)
		return rebuild(b, b, v) == v
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRebuildAcrossBanksPreservesFormat(t *testing.T) {
	b1, b2 := newBank(), newBank()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		v := randomGround(b1, r, 4)
		w := rebuild(b1, b2, v)
		if b1.Format(v) != b2.Format(w) {
			t.Fatalf("format mismatch: %q vs %q", b1.Format(v), b2.Format(w))
		}
	}
}
