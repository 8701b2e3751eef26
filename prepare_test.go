package lincount_test

// Prepared-query and plan-cache behavior: hits after the first
// compilation, invalidation by re-parse, one entry for every budget,
// the cache-bypass option, and concurrent use of one PreparedQuery (the
// latter matters under -race, which make check runs).

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lincount"
	"lincount/internal/workload"
)

func sgSetup(t testing.TB) (*lincount.Program, *lincount.Database) {
	t.Helper()
	p, err := lincount.ParseProgram(workload.SGProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(workload.Cylinder(8, 4, 2)); err != nil {
		t.Fatal(err)
	}
	return p, db
}

func sgQuery() string { return "?- sg(" + workload.CylinderQuery + ",Y)." }

func TestPreparedQueryCacheHit(t *testing.T) {
	p, db := sgSetup(t)
	for _, s := range []lincount.Strategy{lincount.Auto, lincount.SemiNaive, lincount.Magic, lincount.CountingReduced} {
		t.Run(s.String(), func(t *testing.T) {
			pq, err := lincount.Prepare(p, sgQuery(), s)
			if err != nil {
				t.Fatal(err)
			}
			first, err := pq.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			second, err := pq.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			if !second.PlanCacheHit {
				t.Errorf("second Eval: PlanCacheHit = false, want true")
			}
			if second.CompileTime != 0 {
				t.Errorf("second Eval: CompileTime = %v, want 0 on a cache hit", second.CompileTime)
			}
			if !reflect.DeepEqual(first.Answers, second.Answers) {
				t.Errorf("cached plan changed the answers")
			}
			cold, err := lincount.Eval(p, db, sgQuery(), s, lincount.WithoutPlanCache())
			if err != nil {
				t.Fatal(err)
			}
			if cold.PlanCacheHit {
				t.Errorf("WithoutPlanCache: PlanCacheHit = true, want false")
			}
			if !reflect.DeepEqual(first.Answers, cold.Answers) {
				t.Errorf("cached and cold answers differ")
			}
		})
	}
}

func TestPrepareSurfacesInapplicability(t *testing.T) {
	// Nonlinear recursion: the counting strategies must refuse it at
	// Prepare time, before any database work.
	p, err := lincount.ParseProgram(`
tc(X,Y) :- arc(X,Y).
tc(X,Y) :- tc(X,Z), tc(Z,Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lincount.Prepare(p, "?- tc(a,Y).", lincount.CountingReduced); err == nil {
		t.Fatalf("Prepare(nonlinear, CountingReduced) succeeded, want analysis error")
	}
	// Auto defers planning to Eval time, so Prepare succeeds.
	if _, err := lincount.Prepare(p, "?- tc(a,Y).", lincount.Auto); err != nil {
		t.Fatalf("Prepare(nonlinear, Auto): %v", err)
	}
}

func TestPlanCacheInvalidatedByReparse(t *testing.T) {
	p1, db1 := sgSetup(t)
	warm, err := lincount.Eval(p1, db1, sgQuery(), lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PlanCacheHit {
		t.Fatalf("first evaluation on a fresh program hit the cache")
	}
	hit, err := lincount.Eval(p1, db1, sgQuery(), lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.PlanCacheHit {
		t.Fatalf("second evaluation missed the cache")
	}

	// Re-parsing the identical source yields a new Program with an empty
	// plan cache: nothing survives the program's lifetime.
	p2, db2 := sgSetup(t)
	res, err := lincount.Eval(p2, db2, sgQuery(), lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Errorf("re-parsed program served a stale plan")
	}
}

// TestPlanCacheServesEveryBudget: plans are pure functions of
// (program, query, strategy), so an evaluation under a different budget
// is served by the plan already cached — and the budget, applied at
// execution, still trips.
func TestPlanCacheServesEveryBudget(t *testing.T) {
	p, db := sgSetup(t)
	if _, err := lincount.Eval(p, db, sgQuery(), lincount.SemiNaive); err != nil {
		t.Fatal(err)
	}
	other, err := lincount.Eval(p, db, sgQuery(), lincount.SemiNaive,
		lincount.WithMaxIterations(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !other.PlanCacheHit {
		t.Errorf("a second budget (WithMaxIterations) missed the cached plan")
	}
	tracer := lincount.NewTracer()
	_, err = lincount.Eval(p, db, sgQuery(), lincount.SemiNaive,
		lincount.WithMaxDerivedFacts(1), lincount.WithTracer(tracer))
	if !errors.Is(err, lincount.ErrResourceLimit) {
		t.Fatalf("WithMaxDerivedFacts(1) on a cached plan = %v, want a resource-limit trip", err)
	}
	var trace strings.Builder
	if err := tracer.WriteText(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "cache_hit=1") {
		t.Errorf("the tripped evaluation compiled afresh; want the cached plan:\n%s", trace.String())
	}
}

func TestPreparedQueryConcurrentEval(t *testing.T) {
	p, db := sgSetup(t)
	pq, err := lincount.Prepare(p, sgQuery(), lincount.Auto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := pq.Eval(db)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Answers, want.Answers) {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedQueryConcurrentJoinModes exercises one PreparedQuery from
// many goroutines while mixing evaluation modes: the cached plan, a
// cache bypass that recompiles per call, and one tracer shared by every
// traced call. The compiled plan is shared; pipeline state (frames, probe
// keys, cached index handles) is per-evaluation, so every mode must agree
// under -race.
func TestPreparedQueryConcurrentJoinModes(t *testing.T) {
	p, db := sgSetup(t)
	pq, err := lincount.Prepare(p, sgQuery(), lincount.Auto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	modes := [][]lincount.Option{
		nil,
		{lincount.WithoutPlanCache()},
		{lincount.WithTracer(lincount.NewTracer())},
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(modes))
	for m := range modes {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					res, err := pq.Eval(db, modes[m]...)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Answers, want.Answers) {
						errs <- errMismatch
						return
					}
				}
			}(m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = errForConcurrent("concurrent prepared eval returned different answers")

type errForConcurrent string

func (e errForConcurrent) Error() string { return string(e) }
