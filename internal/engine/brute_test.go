package engine

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// The reference the executor is tested against: a conjunctive-query
// enumerator with nothing in common with it — nested loops over
// Relation.Row in source-body order, MatchTerms on name-keyed maps, no
// indexes, no reordering, no batching.

// bruteSource is what one positive body literal may read: the rows
// [lo, hi) of rel that pass visible (nil admits every row).
type bruteSource struct {
	rel     *database.Relation
	lo, hi  database.RowID
	visible func(database.RowID) bool
}

// fullSource admits every row of rel.
func fullSource(rel *database.Relation) bruteSource {
	if rel == nil {
		return bruteSource{}
	}
	return bruteSource{rel: rel, hi: database.RowID(rel.Len())}
}

// bruteForce enumerates every instantiation of r's body that extends the
// bindings in given (nil for none) and returns the formatted head of each
// — a multiset: one entry per instantiation. src resolves a positive
// literal's source by body position; read resolves the relation a negated
// literal tests.
func bruteForce(bank *term.Bank, r ast.Rule, given map[symtab.Sym]term.Value,
	src func(bodyIdx int) bruteSource, read func(symtab.Sym) *database.Relation) []string {
	syms := bank.Symbols()
	var pos, filters []ast.Literal
	var posIdx []int
	for i, l := range r.Body {
		if l.Negated || ast.IsBuiltinName(syms.String(l.Pred)) {
			filters = append(filters, l)
		} else {
			pos, posIdx = append(pos, l), append(posIdx, i)
		}
	}
	var out []string
	var rec func(k int, bound map[symtab.Sym]term.Value)
	rec = func(k int, bound map[symtab.Sym]term.Value) {
		if k == len(pos) {
			// The filters may bind (=, succ): give them a copy.
			if b := maps.Clone(bound); bruteFilters(bank, filters, b, read) {
				out = append(out, formatHead(bank, r.Head, b))
			}
			return
		}
		// MatchTerms extends bound in place, also when it fails; the
		// variables this literal can bind are unbound again after each row.
		var fresh []symtab.Sym
		for _, v := range pos[k].Vars() {
			if _, ok := bound[v]; !ok {
				fresh = append(fresh, v)
			}
		}
		s := src(posIdx[k])
		for id := s.lo; id < s.hi && int(id) < s.rel.Len(); id++ {
			if s.visible != nil && !s.visible(id) {
				continue
			}
			if MatchTerms(bank, pos[k].Args, s.rel.Row(id), bound) {
				rec(k+1, bound)
			}
			for _, v := range fresh {
				delete(bound, v)
			}
		}
	}
	bound := maps.Clone(given)
	if bound == nil {
		bound = map[symtab.Sym]term.Value{}
	}
	rec(0, bound)
	return out
}

func formatHead(bank *term.Bank, head ast.Literal, bound map[symtab.Sym]term.Value) string {
	parts := make([]string, len(head.Args))
	for i, a := range head.Args {
		v, ok := InstantiateTerm(bank, a, bound)
		if !ok {
			panic("bruteForce: head variable unbound")
		}
		parts[i] = bank.Format(v)
	}
	return strings.Join(parts, ",")
}

// bruteFilters applies builtins and negated literals to a complete match
// of the positive literals, each as soon as it is decidable (= and succ
// may bind their unbound side, which can make another filter decidable).
func bruteFilters(bank *term.Bank, filters []ast.Literal, bound map[symtab.Sym]term.Value, read func(symtab.Sym) *database.Relation) bool {
	pending := filters
	for len(pending) > 0 {
		var later []ast.Literal
		for _, l := range pending {
			holds, decided := bruteFilter(bank, l, bound, read)
			if !decided {
				later = append(later, l)
			} else if !holds {
				return false
			}
		}
		if len(later) == len(pending) {
			panic("bruteForce: undecidable filter (unsafe rule)")
		}
		pending = later
	}
	return true
}

func bruteFilter(bank *term.Bank, l ast.Literal, bound map[symtab.Sym]term.Value, read func(symtab.Sym) *database.Relation) (holds, decided bool) {
	vals := make([]term.Value, len(l.Args))
	ground := make([]bool, len(l.Args))
	for i, a := range l.Args {
		vals[i], ground[i] = InstantiateTerm(bank, a, bound)
	}
	if l.Negated {
		for _, g := range ground {
			if !g {
				return false, false
			}
		}
		rel := read(l.Pred)
		return rel == nil || rel.Arity() != len(vals) || !rel.Contains(vals), true
	}
	x, y := vals[0], vals[1]
	bind := func(i int, v term.Value) (bool, bool) {
		if l.Args[i].Kind != ast.Var {
			return false, false
		}
		bound[l.Args[i].Name] = v
		return true, true
	}
	switch name := bank.Symbols().String(l.Pred); name {
	case ast.BuiltinEq:
		switch {
		case ground[0] && ground[1]:
			return x == y, true
		case ground[0]:
			return bind(1, x)
		case ground[1]:
			return bind(0, y)
		}
		return false, false
	case ast.BuiltinSucc:
		switch {
		case ground[0] && ground[1]:
			return x.IsInt() && y.IsInt() && y.AsInt() == x.AsInt()+1, true
		case ground[0]:
			if !x.IsInt() {
				return false, true
			}
			return bind(1, term.Int(x.AsInt()+1))
		case ground[1]:
			if !y.IsInt() {
				return false, true
			}
			return bind(0, term.Int(y.AsInt()-1))
		}
		return false, false
	default:
		if !ground[0] || !ground[1] {
			return false, false
		}
		c := term.Compare(x, y)
		if x.IsInt() && y.IsInt() {
			c = int(x.AsInt() - y.AsInt())
		}
		switch name {
		case ast.BuiltinNeq:
			return c != 0, true
		case ast.BuiltinLt:
			return c < 0, true
		case ast.BuiltinLe:
			return c <= 0, true
		case ast.BuiltinGt:
			return c > 0, true
		case ast.BuiltinGe:
			return c >= 0, true
		}
		panic("bruteForce: unknown builtin " + name)
	}
}

// formatTuple renders a head tuple the way bruteForce does.
func formatTuple(bank *term.Bank, t []term.Value) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = bank.Format(v)
	}
	return strings.Join(parts, ",")
}

// sameMultiset fails the test unless got and want hold the same strings
// with the same multiplicities.
func sameMultiset(t *testing.T, what string, got, want []string) {
	t.Helper()
	got, want = append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) == fmt.Sprint(want) {
		return
	}
	count := map[string]int{}
	for _, s := range got {
		count[s]++
	}
	for _, s := range want {
		count[s]--
	}
	var diff []string
	for s, n := range count {
		if n != 0 {
			diff = append(diff, fmt.Sprintf("%s:%+d", s, n))
		}
	}
	sort.Strings(diff)
	if len(diff) > 12 {
		diff = append(diff[:12], "…")
	}
	t.Errorf("%s: executor delivered %d solutions, brute force admits %d (tuple:surplus %v)",
		what, len(got), len(want), diff)
}
