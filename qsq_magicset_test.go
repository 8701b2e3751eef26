package lincount

import (
	"fmt"
	"testing"

	"lincount/internal/workload"
)

// TestQSQInputsEqualMagicSet: QSQ's subquery (input) set is the
// operational twin of the magic set. On the four benchmark shapes and
// every corpus program both strategies cover, QSQ's InputTuples equals
// the magic rewrite's magic-set size, and its answers equal semi-naive's.
func TestQSQInputsEqualMagicSet(t *testing.T) {
	// bench marks the goals both strategies must cover.
	type goal struct {
		name, src, facts, query string
		bench                   bool
	}
	var goals []goal
	for _, sh := range workload.BenchShapes(64, 16, 4) {
		goals = append(goals, goal{sh.Name, sh.Program, sh.Facts, sh.Query, true})
	}
	for _, c := range loadCorpus(t) {
		goals = append(goals, goal{name: c.name, src: c.text})
	}
	for _, g := range goals {
		t.Run(g.name, func(t *testing.T) {
			p, err := ParseProgram(g.src)
			if err != nil {
				t.Fatal(err)
			}
			db := NewDatabase(p)
			if err := db.LoadFacts(g.facts); err != nil {
				t.Fatal(err)
			}
			query := g.query
			if query == "" {
				query = p.Queries()[0]
			}
			run := func(s Strategy) *Result {
				res, err := Eval(p, db, query, s)
				if notApplicable(err) {
					return nil
				}
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				return res
			}
			qsq, magic, base := run(QSQ), run(Magic), run(SemiNaive)
			if qsq == nil || magic == nil {
				if g.bench {
					t.Fatal("qsq and magic must both cover a benchmark shape")
				}
				t.Skip("qsq or magic does not cover this program")
			}
			if qsq.Stats.CountingNodes != magic.Stats.CountingNodes {
				t.Errorf("qsq input tuples %d, magic set %d", qsq.Stats.CountingNodes, magic.Stats.CountingNodes)
			}
			if got, want := fmt.Sprint(qsq.Answers), fmt.Sprint(base.Answers); got != want {
				t.Errorf("qsq answers %s, semi-naive %s", got, want)
			}
		})
	}
}
