package incremental

import (
	"context"
	"testing"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// scanAnswers is the reference for answer extraction: every row of the
// goal's relation — the from-scratch result's, else the database's —
// matched against the goal with MatchTerms, no index and no executor.
func scanAnswers(f *fixture, res *engine.Result, db *database.Database, q ast.Query) []database.Tuple {
	rel := res.Relation(q.Goal.Pred)
	if rel == nil {
		rel = db.Relation(q.Goal.Pred)
	}
	var out []database.Tuple
	for id := 0; rel != nil && id < rel.Len(); id++ {
		if engine.MatchTerms(f.bank, q.Goal.Args, rel.At(id), map[symtab.Sym]term.Value{}) {
			out = append(out, rel.At(id).Clone())
		}
	}
	return out
}

// TestAnswerExtraction runs every binding shape of a goal through
// engine.Answers over a from-scratch evaluation and through the
// materialisation's Answers after a maintained batch; both must equal the
// scan of the from-scratch result.
func TestAnswerExtraction(t *testing.T) {
	f := newFixture(t, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
h(X,N) :- holds(X,N).`, `
up(d,b). up(e,b). up(b,a). up(c,a). up(g,c).
flat(a,a). flat(b,c). flat(c,b).
down(a,a). down(b,d). down(c,e).
holds(box(a,k),1). holds(box(b,k),2). holds(box(a,j),3). holds(crate(a),4).`)
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ = apply(t, m, []Op{{Text: "down(c,g)."}, {Retract: true, Text: "up(g,c)."}, {Text: "holds(box(c,k),5)."}})
	db := m.Database()
	res, err := engine.Eval(f.prog, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, goal string
		n          int
	}{
		{"bound first", "?- sg(d,Y).", 3},
		{"bound second", "?- sg(X,a).", 5},
		{"both bound", "?- sg(d,e).", 1},
		{"both bound, not derived", "?- sg(d,b).", 0},
		{"all free", "?- sg(X,Y).", 11},
		{"absent constant", "?- sg(nowhere,Y).", 0},
		{"repeated variable", "?- sg(X,X).", 2},
		{"compound with inner constant", "?- h(box(W,k),N).", 3},
		{"extensional goal", "?- up(X,b).", 2},
		{"extensional goal, both bound", "?- up(d,b).", 1},
		{"arity mismatch", "?- sg(X).", 0},
		{"extensional arity mismatch", "?- up(X,Y,Z).", 0},
		{"unknown predicate", "?- nope(X).", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := f.query(t, tc.goal)
			want := scanAnswers(f, res, db, q)
			if len(want) != tc.n {
				t.Fatalf("reference scan has %d answers, want %d: %v", len(want), tc.n, want)
			}
			if got := engine.Answers(res, db, q); !sameTuples(got, want) {
				t.Errorf("engine.Answers = %v, want %v", got, want)
			}
			if got := m.Answers(q); !sameTuples(got, want) {
				t.Errorf("Materialization.Answers = %v, want %v", got, want)
			}
		})
	}

	// The database is optional: without one a derived goal is answered
	// from the result alone and an extensional goal has no answers.
	if got := engine.Answers(res, nil, f.query(t, "?- sg(d,Y).")); len(got) != 3 {
		t.Errorf("derived goal without a database: %v, want 3 answers", got)
	}
	if got := engine.Answers(res, nil, f.query(t, "?- up(X,b).")); got != nil {
		t.Errorf("extensional goal without a database: %v, want none", got)
	}
}
