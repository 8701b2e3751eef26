package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// The read disciplines of Joiner.Run and PreparedSolve.Solve — delta
// windows and the dead-row filter — checked as a property: whatever the
// configuration, the executor must call its sink exactly once per body
// instantiation the brute-force enumerator admits under the same
// visibility rule. Relations are sized
// so windows and intermediate results straddle the batchFrames boundary:
// a derivation dropped or delivered twice at a chunk edge breaks multiset
// equality.

// visibleSource is the visibility rule as JoinConfig documents it,
// written against the source rule with no reference to the executor:
// what the positive literal at bodyIdx may read when the literal at
// deltaIdx (-1 for none) is the delta occurrence.
func visibleSource(r ast.Rule, bodyIdx, deltaIdx int, delta map[symtab.Sym]Delta, cfg JoinConfig,
	read func(symtab.Sym) *database.Relation) bruteSource {
	pred := r.Body[bodyIdx].Pred
	if bodyIdx == deltaIdx {
		d := delta[pred]
		return bruteSource{rel: d.Rel, lo: d.Lo, hi: d.Hi}
	}
	s := fullSource(read(pred))
	if dead, ok := cfg.Dead[pred]; ok {
		s.visible = func(id database.RowID) bool { return int(id) >= len(dead) || !dead[id] }
	}
	return s
}

// disciplineWorld is one seeded random database: a base relation b and
// derived relations p (of about pn rows) and q over a small constant
// domain.
type disciplineWorld struct {
	bank    *term.Bank
	db      *database.Database
	derived map[symtab.Sym]*database.Relation
	rng     *rand.Rand
	domain  int
}

func (w *disciplineWorld) sym(s string) symtab.Sym { return w.bank.Symbols().Intern(s) }

func (w *disciplineWorld) read(p symtab.Sym) *database.Relation {
	if rel := w.derived[p]; rel != nil {
		return rel
	}
	return w.db.Relation(p)
}

// fill inserts up to n distinct random pairs.
func (w *disciplineWorld) fill(rel *database.Relation, n int) {
	for tries := 0; rel.Len() < n && tries < 20*n; tries++ {
		rel.Insert(database.Tuple{w.constant(w.rng.Intn(w.domain)), w.constant(w.rng.Intn(w.domain))})
	}
}

func (w *disciplineWorld) constant(i int) term.Value {
	return term.Symbol(w.sym(fmt.Sprintf("c%d", i)))
}

func newDisciplineWorld(t *testing.T, seed int64, pn int) *disciplineWorld {
	t.Helper()
	bank := term.NewBank(symtab.New())
	w := &disciplineWorld{
		bank:    bank,
		db:      database.New(bank),
		derived: map[symtab.Sym]*database.Relation{},
		rng:     rand.New(rand.NewSource(seed)),
		domain:  36,
	}
	b, err := w.db.Ensure(w.sym("b"), 2)
	if err != nil {
		t.Fatal(err)
	}
	w.fill(b, 1+w.rng.Intn(50))
	p, q := database.NewRelation(2), database.NewRelation(2)
	w.fill(p, pn)
	w.fill(q, 1+w.rng.Intn(50))
	w.derived[w.sym("p")], w.derived[w.sym("q")] = p, q
	return w
}

// randomDelta draws a window over rel, or — half the time — over a
// scratch copy of a random subset of its rows, the way the deletion
// passes feed deleted tuples.
func (w *disciplineWorld) randomDelta(rel *database.Relation) Delta {
	if w.rng.Intn(2) == 0 {
		scratch := database.NewRelation(rel.Arity())
		for id := 0; id < rel.Len(); id++ {
			if w.rng.Intn(3) > 0 {
				scratch.Insert(rel.At(id))
			}
		}
		rel = scratch
	}
	n := rel.Len()
	lo, hi := w.rng.Intn(n+1), w.rng.Intn(n+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	switch w.rng.Intn(4) {
	case 0:
		lo = 0
	case 1:
		hi = n
	}
	return Delta{Rel: rel, Lo: database.RowID(lo), Hi: database.RowID(hi)}
}

// randomDead draws a dead-flag slice shorter than, as long as, or longer
// than a relation of n rows, with about a third of the flags set.
func (w *disciplineWorld) randomDead(n int) []bool {
	dead := make([]bool, []int{w.rng.Intn(n + 1), n, n + 1 + w.rng.Intn(8)}[w.rng.Intn(3)])
	for i := range dead {
		dead[i] = w.rng.Intn(3) == 0
	}
	return dead
}

func (w *disciplineWorld) randomConfig(preds []symtab.Sym) JoinConfig {
	var cfg JoinConfig
	if w.rng.Intn(3) == 0 {
		return cfg
	}
	cfg.Dead = map[symtab.Sym][]bool{}
	for _, p := range preds {
		if w.rng.Intn(4) > 0 {
			cfg.Dead[p] = w.randomDead(w.read(p).Len())
		}
	}
	return cfg
}

const disciplineRules = `
h(X,Z)   :- p(X,Y), q(Y,Z).
h(X,W)   :- p(X,Y), p(Y,Z), b(Z,W).
h(X,W)   :- q(X,Z), p(Z,Y), q(Y,W).
h(Y,Z)   :- p(c1,Y), b(Y,Z).
h(X,X)   :- p(X,X).
h(X,Z)   :- b(X,Y), p(Y,Z), q(Z,Y).
h(X,Z)   :- p(X,Y), q(Y,Z), X != Z.
h(X,Z)   :- p(X,Y), p(X,Z), not q(Y,Z).
`

func TestJoinDisciplines(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		// One seed in three gets a p that spans several batches; the rest
		// stay small so the brute-force side stays cheap.
		pn := 1 + int(seed*7%60)
		if seed%3 == 0 {
			pn = 200 + int(seed*83%500)
		}
		w := newDisciplineWorld(t, seed, pn)
		parsed, err := parser.Parse(w.bank, disciplineRules)
		if err != nil {
			t.Fatal(err)
		}
		mutable := []symtab.Sym{w.sym("p"), w.sym("q"), w.sym("b")}
		mset := map[symtab.Sym]bool{}
		for _, p := range mutable {
			mset[p] = true
		}
		j, err := NewJoiner(w.bank, w.db, w.derived, parsed.Program.Rules, mset, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < j.Rules(); i++ {
			r := j.rules[i].src
			for occ := -1; occ < j.Variants(i); occ++ {
				cfg := w.randomConfig(mutable)
				// Every delta map holds the delta occurrence's window; the
				// other predicates' windows come and go and must not
				// change what the run reads.
				delta := map[symtab.Sym]Delta{}
				deltaIdx := -1
				if occ >= 0 {
					deltaIdx = j.rules[i].recBodyIdx[occ]
					delta[j.VariantPred(i, occ)] = w.randomDelta(w.read(j.VariantPred(i, occ)))
				}
				for _, p := range mutable {
					if _, ok := delta[p]; !ok && w.rng.Intn(2) == 0 {
						delta[p] = w.randomDelta(w.read(p))
					}
				}
				want := bruteForce(w.bank, r, nil, func(b int) bruteSource {
					return visibleSource(r, b, deltaIdx, delta, cfg, w.read)
				}, w.read)
				var got []string
				err := j.Run(i, occ, delta, cfg, func(tu database.Tuple) error {
					got = append(got, formatTuple(w.bank, tu))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				sameMultiset(t, fmt.Sprintf("seed %d rule %d variant %d cfg %+v", seed, i, occ, cfg), got, want)
			}
		}
	}
}

func TestSolveRowState(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		w := newDisciplineWorld(t, seed, 30+int(seed)*50)
		parsed, err := parser.Parse(w.bank, "s(Y,Z) :- p(X,Y), q(Y,Z), b(Z,W), X != W.")
		if err != nil {
			t.Fatal(err)
		}
		r := parsed.Program.Rules[0]
		x := r.Body[0].Args[0].Name
		m := NewMatcher(w.bank, w.db, w.derived)
		if seed%4 != 3 {
			m.Dead = map[symtab.Sym][]bool{
				w.sym("p"): w.randomDead(w.read(w.sym("p")).Len()),
				w.sym("b"): w.randomDead(w.read(w.sym("b")).Len()),
			}
		}
		cfg := JoinConfig{Dead: m.Dead}
		ps, err := m.Prepare(r.Body, []symtab.Sym{x}, r.Head.Vars())
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < w.domain; c++ {
			given := map[symtab.Sym]term.Value{x: w.constant(c)}
			want := bruteForce(w.bank, r, given, func(b int) bruteSource {
				return visibleSource(r, b, -1, nil, cfg, w.read)
			}, w.read)
			var got []string
			err := ps.Solve([]term.Value{w.constant(c)}, func(vals []term.Value) error {
				got = append(got, formatTuple(w.bank, vals))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, fmt.Sprintf("seed %d X=c%d", seed, c), got, want)
		}
	}
}

// TestRunSinkFlipsInvisibleRows pins the argument that lets solutions
// reach a Joiner's sink a batch late (docs/INTERNALS.md § Incremental
// maintenance): the propagation sink revives dead head rows while the run
// is still reading that relation under the dead-row filter. A revived row
// may or may not be seen by the rest of the run, so the run delivers at
// least every head the state at its start admits and at most those the
// state at its end admits — which is all a set-valued sink needs.
func TestRunSinkFlipsInvisibleRows(t *testing.T) {
	w := newDisciplineWorld(t, 0, 600)
	parsed, err := parser.Parse(w.bank, "p(X,Z) :- p(X,Y), p(Y,Z).")
	if err != nil {
		t.Fatal(err)
	}
	pSym := w.sym("p")
	p := w.read(pSym)
	dead := make([]bool, p.Len())
	live := database.NewRelation(2) // the delta: some of the live rows
	for id := range dead {
		dead[id] = w.rng.Intn(2) == 0
		if !dead[id] && w.rng.Intn(2) == 0 {
			live.Insert(p.At(id))
		}
	}
	j, err := NewJoiner(w.bank, w.db, w.derived, parsed.Program.Rules, map[symtab.Sym]bool{pSym: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := JoinConfig{Dead: map[symtab.Sym][]bool{pSym: dead}}
	r := j.rules[0].src
	heads := func(occ int, delta map[symtab.Sym]Delta) map[string]bool {
		set := map[string]bool{}
		for _, h := range bruteForce(w.bank, r, nil, func(b int) bruteSource {
			return visibleSource(r, b, j.rules[0].recBodyIdx[occ], delta, cfg, w.read)
		}, w.read) {
			set[h] = true
		}
		return set
	}
	for occ := 0; occ < j.Variants(0); occ++ {
		delta := map[symtab.Sym]Delta{pSym: {Rel: live, Hi: database.RowID(live.Len())}}
		before := heads(occ, delta)
		if len(before) <= batchFrames {
			t.Fatalf("variant %d: only %d heads, delivery is never deferred", occ, len(before))
		}
		saved := append([]bool(nil), dead...)
		got := map[string]bool{}
		flips := 0
		err := j.Run(0, occ, delta, cfg, func(tu database.Tuple) error {
			got[formatTuple(w.bank, tu)] = true
			if id, ok := p.Find(tu); ok && dead[id] {
				dead[id] = false
				flips++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if flips == 0 {
			t.Fatalf("variant %d: the sink flipped no row", occ)
		}
		after := heads(occ, delta)
		for h := range before {
			if !got[h] {
				t.Errorf("variant %d (%d rows flipped mid-run): head %s visible at the start was not delivered", occ, flips, h)
			}
		}
		for h := range got {
			if !after[h] {
				t.Errorf("variant %d (%d rows flipped mid-run): delivered %s, which the final state does not admit", occ, flips, h)
			}
		}
		copy(dead, saved)
	}
}
