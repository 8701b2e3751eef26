package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lincount/internal/database"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// relStrings renders a relation's rows in RowID order.
func relStrings(bank *term.Bank, r *database.Relation) []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, r.Len())
	for id := database.RowID(0); int(id) < r.Len(); id++ {
		row := r.Row(id)
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = bank.Format(v)
		}
		out = append(out, strings.Join(parts, ","))
	}
	return out
}

// TestBatchedMatchesLegacy checks the executor over a spread of rule
// shapes against two references that share no code with it: the literal
// minimal model of each program, and the brute-force enumerator — every
// rule variant, re-run over the final model through a Joiner, must
// deliver exactly the body instantiations brute force admits. (The name
// predates the removal of the tuple-at-a-time path it once compared
// against.)
func TestBatchedMatchesLegacy(t *testing.T) {
	cases := []struct {
		name  string
		facts string
		src   string
		want  map[string][]string // predicate → sorted rows of the minimal model
	}{
		{
			name:  "linear tc",
			facts: "e(a,b). e(b,c). e(c,d). e(d,a).",
			src:   "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
			want: map[string][]string{"tc": {"a,a", "a,b", "a,c", "a,d", "b,a", "b,b", "b,c", "b,d",
				"c,a", "c,b", "c,c", "c,d", "d,a", "d,b", "d,c", "d,d"}},
		},
		{
			name:  "nonlinear tc",
			facts: "e(a,b). e(b,c). e(c,d). e(d,e). e(e,f).",
			src:   "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).",
			want: map[string][]string{"tc": {"a,b", "a,c", "a,d", "a,e", "a,f", "b,c", "b,d", "b,e", "b,f",
				"c,d", "c,e", "c,f", "d,e", "d,f", "e,f"}},
		},
		{
			name: "same generation",
			facts: `up(d,b). up(e,b). up(b,a). up(c,a).
flat(a,a). flat(b,c). flat(c,b).
down(a,a). down(b,d). down(c,e).`,
			src:  "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).",
			want: map[string][]string{"sg": {"a,a", "b,a", "b,c", "c,a", "c,b", "d,a", "d,e", "e,a", "e,e"}},
		},
		{
			name:  "builtins",
			facts: "n(1). n(2). n(3). n(4).",
			src:   "lt(X,Y) :- n(X), n(Y), X < Y.\nnx(X,Y) :- n(X), succ(X,Y).\nsame(X,Y) :- n(X), n(Y), X = Y.",
			want: map[string][]string{
				"lt":   {"1,2", "1,3", "1,4", "2,3", "2,4", "3,4"},
				"nx":   {"1,2", "2,3", "3,4", "4,5"},
				"same": {"1,1", "2,2", "3,3", "4,4"},
			},
		},
		{
			name:  "negation",
			facts: "node(a). node(b). node(c). e(a,b).",
			src:   "reach(X) :- e(_,X).\nunreach(X) :- node(X), not reach(X).",
			want:  map[string][]string{"reach": {"b"}, "unreach": {"a", "c"}},
		},
		{
			name:  "compound heads",
			facts: "edge(a,b). edge(b,c). edge(c,d).",
			src:   "path(X,Y,step(X,Y)) :- edge(X,Y).\npath(X,Y,via(Z,P)) :- edge(X,Z), path(Z,Y,P).",
			want: map[string][]string{"path": {"a,b,step(a,b)", "a,c,via(b,step(b,c))", "a,d,via(b,via(c,step(c,d)))",
				"b,c,step(b,c)", "b,d,via(c,step(c,d))", "c,d,step(c,d)"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.facts)
			prog := f.program(t, tc.src)
			res, err := Eval(prog, f.db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			syms := f.bank.Symbols()
			var facts int64
			for p, want := range tc.want {
				got := relStrings(f.bank, res.Relation(syms.Intern(p)))
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s = %v, want %v", p, got, want)
				}
				facts += int64(len(want))
			}
			if res.Stats.DerivedFacts != facts {
				t.Errorf("DerivedFacts = %d, want %d", res.Stats.DerivedFacts, facts)
			}

			// Every rule variant over the final model, against brute force.
			read := func(p symtab.Sym) *database.Relation {
				if rel := res.Derived[p]; rel != nil {
					return rel
				}
				return f.db.Relation(p)
			}
			mutable := map[symtab.Sym]bool{}
			for p := range tc.want {
				mutable[syms.Intern(p)] = true
			}
			j, err := NewJoiner(f.bank, f.db, res.Derived, prog.Rules, mutable, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < j.Rules(); i++ {
				r := j.rules[i].src
				want := bruteForce(f.bank, r, nil, func(b int) bruteSource { return fullSource(read(r.Body[b].Pred)) }, read)
				model := map[string]bool{}
				for _, row := range tc.want[syms.String(j.HeadPred(i))] {
					model[row] = true
				}
				for _, h := range want {
					if !model[h] {
						t.Errorf("rule %d derives %s, which the model lacks", i, h)
					}
				}
				for occ := -1; occ < j.Variants(i); occ++ {
					var delta map[symtab.Sym]Delta
					if occ >= 0 {
						rel := read(j.VariantPred(i, occ))
						delta = map[symtab.Sym]Delta{j.VariantPred(i, occ): {Rel: rel, Hi: database.RowID(rel.Len())}}
					}
					var got []string
					err := j.Run(i, occ, delta, JoinConfig{}, func(tu database.Tuple) error {
						got = append(got, formatTuple(f.bank, tu))
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					sameMultiset(t, fmt.Sprintf("rule %d variant %d", i, occ), got, want)
				}
			}
		})
	}
}

const tcSrc = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y)."

// TestBatchedDeltaWindows pins the semi-naive contract: a recursive rule
// run reads its delta window, not the accumulated relation. On chain(40)
// that has a closed form. tc holds the 41·40/2 = 820 paths; iteration 0
// runs both rules naively (40 arcs, then the 39 two-arc paths), and from
// then on the window of iteration k holds exactly the paths first derived
// in iteration k-1, so every path of three or more arcs is derived once —
// only the 39 two-arc paths are derived twice (by iteration 0's naive
// pass and again from iteration 1's window, which is all of iteration 0).
// Re-reading full relations would make the count quadratically larger.
func TestBatchedDeltaWindows(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "e(n%d, n%d).\n", i, i+1)
	}
	f := newFixture(t, sb.String())
	res := eval(t, f, tcSrc, Options{})
	if res.Stats.DerivedFacts != 820 || res.Stats.Inferences != 820+39 || res.Stats.Iterations != 40 {
		t.Errorf("chain(40): DerivedFacts %d, Inferences %d, Iterations %d; want 820, 859, 40",
			res.Stats.DerivedFacts, res.Stats.Inferences, res.Stats.Iterations)
	}
}

// TestScratchIsolation (satellite: shared-state removal) checks that two
// evaluators compiled from one plan never share pipeline buffers: compiled
// rules are stateless, so concurrent evaluations over the same program
// must not interfere. Run with -race.
func TestScratchIsolation(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,d).")
	p := f.program(t, tcSrc)
	done := make(chan []string, 8)
	for g := 0; g < 8; g++ {
		go func() {
			res, err := Eval(p, f.db, Options{})
			if err != nil {
				done <- []string{"err: " + err.Error()}
				return
			}
			done <- relStrings(f.bank, res.Relation(f.bank.Symbols().Intern("tc")))
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("goroutine result %v != %v", got, first)
		}
	}
}
