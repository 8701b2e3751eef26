package lincount_test

// Auto's chain is structural: what the query's binding reaches in the
// data decides nothing before the attempt that runs. Auto once picked by
// a left-graph verdict cached per query and data state; the tests named
// after it keep what they guarded — writes, forks and concurrent
// evaluations over databases that disagree get their own answers — and
// now also hold the pick constant.

import (
	"reflect"
	"sync"
	"testing"

	"lincount"
	"lincount/internal/workload"
)

const chainFacts = `
up(a,b). up(b,c). up(c,d).
flat(d,f). flat(b,g).
down(f,g). down(g,h). down(h,i). down(i,j).
`

const chainQuery = "?- sg(a,Y)."

func chainDB(t *testing.T) (*lincount.Program, *lincount.Database) {
	t.Helper()
	p, err := lincount.ParseProgram(workload.SGProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(chainFacts); err != nil {
		t.Fatal(err)
	}
	return p, db
}

// autoResolves evaluates the query with Auto, checks the answers against
// semi-naive and the pick against want.
func autoResolves(t *testing.T, p *lincount.Program, db *lincount.Database, want lincount.Strategy) {
	t.Helper()
	res, err := lincount.Eval(p, db, chainQuery, lincount.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved != want || res.Strategy != want || len(res.Degraded) != 0 {
		t.Errorf("auto resolved to %s and answered with %s after %d failed attempts, want %s outright",
			res.Resolved, res.Strategy, len(res.Degraded), want)
	}
	ref, err := lincount.Eval(p, db, chainQuery, lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Answers, ref.Answers) {
		t.Errorf("auto (%s) answers %v, semi-naive %v", res.Strategy, res.Answers, ref.Answers)
	}
}

// TestVerdictFollowsWrites: a write that closes a cycle in the reachable
// left graph, the one that opens it again and a shortcut where two path
// shapes meet change the answers and leave the pick alone.
func TestVerdictFollowsWrites(t *testing.T) {
	p, db := chainDB(t)
	autoResolves(t, p, db, lincount.CountingRuntime)
	for _, w := range []struct {
		assert     bool
		pred, x, y string
	}{
		{true, "up", "b", "a"},
		{false, "up", "b", "a"},
		{true, "down", "j", "k"},
		{true, "flat", "c", "f"},
		{true, "up", "a", "d"},
	} {
		var err error
		if w.assert {
			err = db.Assert(w.pred, w.x, w.y)
		} else {
			_, err = db.Retract(w.pred, w.x, w.y)
		}
		if err != nil {
			t.Fatal(err)
		}
		autoResolves(t, p, db, lincount.CountingRuntime)
	}
}

// TestVerdictAcrossForks: a fork that closes a cycle and its parent,
// which does not, evaluate the same cached plan to their own answers.
func TestVerdictAcrossForks(t *testing.T) {
	p, db := chainDB(t)
	autoResolves(t, p, db, lincount.CountingRuntime)
	fork := db.Fork()
	if err := fork.Assert("up", "b", "a"); err != nil {
		t.Fatal(err)
	}
	autoResolves(t, p, fork, lincount.CountingRuntime)
	autoResolves(t, p, db, lincount.CountingRuntime)
}

// TestVerdictConcurrent: evaluations of one query over a database and
// over a fork that disagrees with it share one plan.Shared from many
// goroutines; each must get the answers that are right for its own
// database. Run under -race.
func TestVerdictConcurrent(t *testing.T) {
	p, db := chainDB(t)
	fork := db.Fork()
	if err := fork.Assert("up", "b", "a"); err != nil {
		t.Fatal(err)
	}
	sides := []*lincount.Database{db, fork}
	refs := make([][][]string, len(sides))
	for i, s := range sides {
		ref, err := lincount.Eval(p, s, chainQuery, lincount.SemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.Answers
	}
	if reflect.DeepEqual(refs[0], refs[1]) {
		t.Fatal("the fork's cycle changes no answer: the test checks nothing")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(sides)
				res, err := lincount.Eval(p, sides[k], chainQuery, lincount.Auto)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Resolved != lincount.CountingRuntime || !reflect.DeepEqual(res.Answers, refs[k]) {
					t.Errorf("side %d: resolved %s, answers %v (want %v)", k, res.Resolved, res.Answers, refs[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
