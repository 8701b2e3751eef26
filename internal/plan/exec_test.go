package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/limits"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// chainFacts is same-generation data on an up/down chain of n levels with
// a flat arc at every level.
func chainFacts(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "up(a%d,a%d). down(b%d,b%d). flat(a%d,b%d).\n", i, i+1, i+1, i, i, i)
	}
	return b.String()
}

// execFixture parses src and query into one bank and loads facts into a
// database over it.
func execFixture(t *testing.T, src, query, facts string) (*Shared, *database.Database) {
	t.Helper()
	bank := term.NewBank(symtab.New())
	res, err := parser.Parse(bank, src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(bank, query)
	if err != nil {
		t.Fatal(err)
	}
	db := database.New(bank)
	if err := db.LoadText(facts); err != nil {
		t.Fatal(err)
	}
	return NewShared(res.Program, q), db
}

func execute(t *testing.T, sh *Shared, db *database.Database, s Strategy, opts ExecOptions) (*Result, error) {
	t.Helper()
	cq, err := Compile(sh, s, nil)
	if err != nil {
		t.Fatalf("compile %v: %v", s, err)
	}
	return cq.Execute(context.Background(), db, opts)
}

// TestExecuteBudgetTripKeepsPartialStats: a fact budget that trips
// mid-run fails every evaluator with the budget error, and the stats sink
// still receives the work done until then.
func TestExecuteBudgetTripKeepsPartialStats(t *testing.T) {
	for _, s := range []Strategy{Naive, SemiNaive, Magic, Counting, CountingRuntime, QSQ} {
		t.Run(s.String(), func(t *testing.T) {
			sh, db := execFixture(t, sgSrc, "?- sg(a0,Y).", chainFacts(40))
			var st engine.Stats
			_, err := execute(t, sh, db, s, ExecOptions{MaxFacts: 30, StatsOut: &st})
			var rle *limits.ResourceLimitError
			if !errors.As(err, &rle) {
				t.Fatalf("error %v, want a resource limit", err)
			}
			if rle.Kind != limits.KindFacts && rle.Kind != limits.KindTuples {
				t.Errorf("limit kind %q, want a fact or tuple budget", rle.Kind)
			}
			if st.DerivedFacts == 0 || st.Probes == 0 {
				t.Errorf("partial stats %+v: want derived facts and probes", st)
			}
		})
	}
}
