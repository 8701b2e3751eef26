package lincount_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"lincount"
	"lincount/internal/server"
	"lincount/internal/workload"
)

// TestFlatFactsDoNotGrowTheBank is the regression test for the bank leak:
// a ground atom is a predicate and a row, never a term, so loading,
// retracting and writing flat facts must leave the term bank exactly as
// it was — on a long-lived server the bank used to grow by one compound
// per distinct fact ever written.
func TestFlatFactsDoNotGrowTheBank(t *testing.T) {
	p := lincount.MustParseProgram(workload.SGProgram + "flat(seed_a,seed_b).\n")
	before := p.BankLen()

	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(workload.Cylinder(4, 8, 2) + "n(7). n(-3). flag.\n"); err != nil {
		t.Fatal(err)
	}
	if got := p.BankLen(); got != before {
		t.Fatalf("LoadFacts of flat facts grew the bank: %d -> %d compounds", before, got)
	}
	if n, err := db.RetractFacts("up(u_0_0,u_1_0). up(never,there). n(7)."); err != nil || n != 2 {
		t.Fatalf("RetractFacts = %d, %v", n, err)
	}
	if got := p.BankLen(); got != before {
		t.Fatalf("RetractFacts grew the bank: %d -> %d compounds", before, got)
	}

	s, err := server.New(server.Config{Program: p, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		// A swap write: one fresh arc in, the previous one out.
		req := server.WriteRequest{Assert: fmt.Sprintf("up(w_%d,u_1_0).", i)}
		if i > 0 {
			req.Retract = fmt.Sprintf("up(w_%d,u_1_0).", i-1)
		}
		if _, err := s.Write(ctx, req); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats server.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Materialized || stats.MaintBatches == 0 || stats.MaintFallbacks != 0 {
		t.Fatalf("the writes did not go through maintenance: %+v", stats)
	}
	if got := p.BankLen(); got != before {
		t.Fatalf("200 swap writes grew the bank: %d -> %d compounds", before, got)
	}
}

// TestCompoundArgumentsStillIntern: facts whose arguments are genuine
// compound or list terms intern exactly those argument terms — p(1,2);
// the cells [x], [2,x], [[2,x]], [1,[2,x]] — and still not the atoms.
func TestCompoundArgumentsStillIntern(t *testing.T) {
	p := lincount.MustParseProgram("q(X) :- pt(X).")
	db := lincount.NewDatabase(p)
	before := p.BankLen()
	if err := db.LoadFacts("pt(p(1,2)). l([1,[2,x]])."); err != nil {
		t.Fatal(err)
	}
	if got := p.BankLen() - before; got != 5 {
		t.Fatalf("interned %d compounds, want 5 (p(1,2) and four list cells)", got)
	}
	if err := db.LoadFacts("pt(p(1,2)). l([1,[2,x]]). l([2,x])."); err != nil {
		t.Fatal(err)
	}
	if got := p.BankLen() - before; got != 5 {
		t.Fatalf("re-loading known terms interned again: %d compounds, want 5", got)
	}
	res, err := lincount.Eval(p, db, "?- q(X).", lincount.SemiNaive)
	if err != nil || len(res.Answers) != 1 || res.Answers[0][0] != "p(1,2)" {
		t.Fatalf("q(X) = %v, %v", res, err)
	}
}
