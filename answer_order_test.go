package lincount_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lincount"
	"lincount/internal/counting"
	"lincount/internal/server"
)

// TestAnswerOrderAcrossSurfaces: every surface that returns the rows of
// one goal returns them in one order — Eval under Auto and under every
// strategy that applies, Materialization.Answers, and the server's
// materialised (Auto) and explicit-strategy reads. The integer answers
// are where orders used to part: as text, 10 sorts before 2.
func TestAnswerOrderAcrossSurfaces(t *testing.T) {
	const src = `
q(X,Y) :- e(X,Y).
q(X,Y) :- up(X,X1), q(X1,Y).
`
	const facts = "e(a,1). e(a,9). e(b,10). e(b,100). e(a,2). up(a,b)."
	const goal = "?- q(a,Y)."
	want := [][]string{{"a", "1"}, {"a", "10"}, {"a", "100"}, {"a", "2"}, {"a", "9"}}

	p := lincount.MustParseProgram(src)
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(facts); err != nil {
		t.Fatal(err)
	}
	check := func(surface string, got [][]string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows %v, want %v", surface, got, want)
		}
	}
	for _, s := range append(lincount.Strategies(), lincount.Auto) {
		res, err := lincount.Eval(p, db, goal, s)
		if errors.Is(err, counting.ErrNotApplicable) {
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		check("Eval "+s.String(), res.Answers)
	}
	m, err := p.Materialize(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.Answers(goal)
	if err != nil {
		t.Fatal(err)
	}
	check("Materialization.Answers", rows)

	srv, err := server.New(server.Config{Program: p, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, s := range []string{"", "magic", "counting-runtime"} {
		resp, err := srv.Query(context.Background(), server.QueryRequest{Query: goal, Strategy: s})
		if err != nil {
			t.Fatalf("server read %q: %v", s, err)
		}
		if s == "" && resp.Strategy != "materialized" {
			t.Errorf("server Auto read ran %s, want the materialised read", resp.Strategy)
		}
		check("server read "+resp.Strategy, resp.Answers)
	}
}
