package lincount_test

// The data-aware half of the planner: Auto's pick follows what the
// query's binding reaches in the data, through a verdict that is cached
// per query and invalidated by exactly the writes that can change it.

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"lincount"
	"lincount/internal/counting"
	"lincount/internal/obsv"
	"lincount/internal/workload"
)

const verdictFacts = `
up(a,b). up(b,c). up(c,d).
flat(d,f). flat(b,g).
down(f,g). down(g,h). down(h,i).
`

const verdictQuery = "?- sg(a,Y)."

func verdictDB(t *testing.T) (*lincount.Program, *lincount.Database) {
	t.Helper()
	p, err := lincount.ParseProgram(workload.SGProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(verdictFacts); err != nil {
		t.Fatal(err)
	}
	return p, db
}

// probes reads the planner's probe counter.
func probes() (hit, miss, skipped int64) {
	return obsv.MPlannerProbes.Value("hit"), obsv.MPlannerProbes.Value("miss"), obsv.MPlannerProbes.Value("skipped")
}

// autoResolves evaluates the query with Auto, checks the answers against
// semi-naive and the pick against want.
func autoResolves(t *testing.T, p *lincount.Program, db *lincount.Database, want lincount.Strategy) {
	t.Helper()
	res, err := lincount.Eval(p, db, verdictQuery, lincount.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved != want || res.Strategy != want || len(res.Degraded) != 0 {
		t.Errorf("auto resolved to %s and answered with %s after %d failed attempts, want %s outright",
			res.Resolved, res.Strategy, len(res.Degraded), want)
	}
	ref, err := lincount.Eval(p, db, verdictQuery, lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Answers, ref.Answers) {
		t.Errorf("auto (%s) answers %v, semi-naive %v", res.Strategy, res.Answers, ref.Answers)
	}
}

// TestVerdictFollowsWrites: the pick follows a write that closes a cycle
// in the reachable left graph and the one that opens it again, and a
// write to a relation the left parts do not read costs no second probe.
func TestVerdictFollowsWrites(t *testing.T) {
	p, db := verdictDB(t)
	_, miss0, _ := probes()
	autoResolves(t, p, db, lincount.Counting)
	if _, miss, _ := probes(); miss != miss0+1 {
		t.Errorf("first evaluation: %d probes, want 1", miss-miss0)
	}

	if err := db.Assert("up", "b", "a"); err != nil {
		t.Fatal(err)
	}
	autoResolves(t, p, db, lincount.CountingRuntime)

	if ok, err := db.Retract("up", "b", "a"); err != nil || !ok {
		t.Fatalf("retract: %v %v", ok, err)
	}
	autoResolves(t, p, db, lincount.Counting)

	hit1, miss1, _ := probes()
	if err := db.Assert("down", "i", "j"); err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("flat", "c", "f"); err != nil {
		t.Fatal(err)
	}
	autoResolves(t, p, db, lincount.Counting)
	if hit, miss, _ := probes(); miss != miss1 || hit != hit1+1 {
		t.Errorf("after writes to down and flat only: %d hits and %d probes, want 1 and 0", hit-hit1, miss-miss1)
	}

	// An acyclic graph with a shortcut has two path shapes into d: the
	// list rewrite's counting set would outgrow the node set, so the
	// rewrite is not on offer and the runtime keeps the query.
	if err := db.Assert("up", "a", "d"); err != nil {
		t.Fatal(err)
	}
	autoResolves(t, p, db, lincount.CountingRuntime)
}

// TestVerdictAcrossForks: a fork shares its parent's verdict until it
// writes to a relation the left parts read, and what it writes then does
// not change what the parent resolves to.
func TestVerdictAcrossForks(t *testing.T) {
	p, db := verdictDB(t)
	autoResolves(t, p, db, lincount.Counting)

	fork := db.Fork()
	if err := fork.Assert("down", "i", "j"); err != nil {
		t.Fatal(err)
	}
	_, miss0, _ := probes()
	autoResolves(t, p, fork, lincount.Counting)
	if _, miss, _ := probes(); miss != miss0 {
		t.Errorf("a fork sharing up probed again (%d probes)", miss-miss0)
	}

	if err := fork.Assert("up", "b", "a"); err != nil {
		t.Fatal(err)
	}
	autoResolves(t, p, fork, lincount.CountingRuntime)
	autoResolves(t, p, db, lincount.Counting)
	autoResolves(t, p, fork, lincount.CountingRuntime)
}

// TestVerdictConcurrent: evaluations of one query over a database and
// over a fork that disagrees with it share one plan.Shared — and its one
// verdict slot — from many goroutines; each must get the pick and the
// answers that are right for its own database. Run under -race.
func TestVerdictConcurrent(t *testing.T) {
	p, db := verdictDB(t)
	fork := db.Fork()
	if err := fork.Assert("up", "b", "a"); err != nil {
		t.Fatal(err)
	}
	sides := []struct {
		db   *lincount.Database
		want lincount.Strategy
	}{{db, lincount.Counting}, {fork, lincount.CountingRuntime}}
	refs := make([][][]string, len(sides))
	for i, s := range sides {
		ref, err := lincount.Eval(p, s.db, verdictQuery, lincount.SemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.Answers
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(sides)
				res, err := lincount.Eval(p, sides[k].db, verdictQuery, lincount.Auto)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Resolved != sides[k].want || !reflect.DeepEqual(res.Answers, refs[k]) {
					t.Errorf("side %d: resolved %s (want %s), answers %v (want %v)",
						k, res.Resolved, sides[k].want, res.Answers, refs[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStaleVerdictFallsThrough is the defence in depth behind the stamp:
// should Auto ever believe an acyclic verdict the data no longer bears
// out, the counting rewrite it then picks is one more attempt of the
// chain, under the evaluation's budgets like any other. Its paths grow by
// a step per round on the cycle, so it trips the iteration budget, which
// charges nothing, and the next strategy answers; under a fact budget
// alone the trip has spent the whole of it and the evaluation stops with
// the limit error instead of diverging.
func TestStaleVerdictFallsThrough(t *testing.T) {
	p, db := verdictDB(t)
	if err := db.Assert("up", "b", "a"); err != nil {
		t.Fatal(err)
	}
	stale := counting.LeftGraphProbe{Acyclic: true, Layered: true, Nodes: 4, Arcs: 3}
	if err := lincount.ForceVerdict(p, db, verdictQuery, stale); err != nil {
		t.Fatal(err)
	}
	if _, err := lincount.Eval(p, db, verdictQuery, lincount.Auto, lincount.WithMaxDerivedFacts(2000)); !errors.Is(err, lincount.ErrResourceLimit) {
		t.Fatalf("under a fact budget alone: %v, want the limit error", err)
	}
	res, err := lincount.Eval(p, db, verdictQuery, lincount.Auto,
		lincount.WithMaxIterations(100), lincount.WithMaxDerivedFacts(100_000))
	if err != nil {
		t.Fatalf("auto must fall through, not fail: %v", err)
	}
	if res.Resolved != lincount.Counting || len(res.Degraded) == 0 || res.Degraded[0].Strategy != lincount.Counting {
		t.Fatalf("resolved %s, degraded %+v: want the counting rewrite picked and tripped", res.Resolved, res.Degraded)
	}
	if res.Strategy != lincount.CountingRuntime {
		t.Errorf("answered with %s, want counting-runtime (next in the chain)", res.Strategy)
	}
	ref, err := lincount.Eval(p, db, verdictQuery, lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Answers, ref.Answers) {
		t.Errorf("answers %v, semi-naive %v", res.Answers, ref.Answers)
	}
}

// TestProbeFaultDegradesRanking: a fault injected into the planner's
// probe costs the evaluation its verdict, not its answer — Auto ranks
// data-blind (the runtime first, as before the verdict existed) and no
// attempt is recorded as failed.
func TestProbeFaultDegradesRanking(t *testing.T) {
	p, db := verdictDB(t)
	res, err := lincount.Eval(p, db, verdictQuery, lincount.Auto,
		lincount.WithFaultInjection(1, "counting.probe=err@1"))
	if err != nil {
		t.Fatalf("a probe fault must not fail the evaluation: %v", err)
	}
	if res.Resolved != lincount.CountingRuntime || len(res.Degraded) != 0 {
		t.Errorf("resolved %s with %d failed attempts, want the data-blind pick counting-runtime and none",
			res.Resolved, len(res.Degraded))
	}
	// Nothing was cached: the next evaluation probes and picks from it.
	autoResolves(t, p, db, lincount.Counting)
}

// TestProbeSkippedUnderReduced: a program with a reduced rewrite never
// pays for a probe, however cold the query.
func TestProbeSkippedUnderReduced(t *testing.T) {
	p, err := lincount.ParseProgram(workload.RightLinearProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(workload.RightLinearChain(8, 2)); err != nil {
		t.Fatal(err)
	}
	hit0, miss0, skipped0 := probes()
	res, err := lincount.Eval(p, db, "?- p(u0,Y).", lincount.Auto, lincount.WithoutPlanCache())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved != lincount.CountingReduced {
		t.Errorf("resolved %s, want counting-reduced", res.Resolved)
	}
	if hit, miss, skipped := probes(); hit != hit0 || miss != miss0 || skipped != skipped0+1 {
		t.Errorf("probe outcomes hit/miss/skipped moved by %d/%d/%d, want 0/0/1", hit-hit0, miss-miss0, skipped-skipped0)
	}
}
