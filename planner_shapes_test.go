package lincount_test

// Auto against the best forced strategy on the four benchmark shapes, on
// deterministic counters: the check that catches a planner that is wrong
// on a workload the benchmark measures, without a clock.

import (
	"reflect"
	"testing"

	"lincount"
	"lincount/internal/workload"
)

func TestAutoWithinBestOnBenchmarkShapes(t *testing.T) {
	want := map[string]lincount.Strategy{
		"sg-acyclic": lincount.CountingRuntime,
		"sg-cyclic":  lincount.CountingRuntime,
		"sg-churn":   lincount.CountingRuntime,
		"rl-adhoc":   lincount.CountingReduced,
	}
	// Exact work of the forced strategies per goal; a goal's cone is the
	// same at any breadth, so these are the full-size benchmark's counters.
	// The runtime's inferences are its arcs and its moves: 380 + 1,122 on
	// the cylinder, 68 + 1,217 on the cyclic chain, 200 + 100 on the
	// closure.
	type work struct{ inferences, derived, nodes, tuples int64 }
	pinned := map[string]map[lincount.Strategy]work{
		"sg-acyclic": {
			lincount.Counting:        {inferences: 1542, derived: 800},
			lincount.CountingRuntime: {inferences: 1502, nodes: 210, tuples: 590},
		},
		"sg-cyclic": {
			lincount.CountingRuntime: {inferences: 1285, nodes: 61, tuples: 1091},
		},
		"sg-churn": {
			lincount.CountingRuntime: {inferences: 1502, nodes: 210, tuples: 590},
		},
		"rl-adhoc": {
			lincount.CountingRuntime: {inferences: 300, nodes: 201, tuples: 100},
		},
	}
	for _, sh := range workload.BenchShapes(64, 16, 4) {
		t.Run(sh.Name, func(t *testing.T) {
			p, err := lincount.ParseProgram(sh.Program)
			if err != nil {
				t.Fatal(err)
			}
			db := lincount.NewDatabase(p)
			if err := db.LoadFacts(sh.Facts); err != nil {
				t.Fatal(err)
			}
			auto, err := lincount.Eval(p, db, sh.Query, lincount.Auto)
			if err != nil {
				t.Fatal(err)
			}
			if auto.Resolved != want[sh.Name] || auto.Strategy != want[sh.Name] {
				t.Errorf("auto resolved to %s and answered with %s, want %s", auto.Resolved, auto.Strategy, want[sh.Name])
			}
			best, bestBy := int64(-1), lincount.Auto
			for _, s := range forcedFor(sh.Name) {
				res, err := lincount.Eval(p, db, sh.Query, s)
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				if !reflect.DeepEqual(res.Answers, auto.Answers) {
					t.Errorf("%s answers differ from auto's (%d vs %d rows)", s, len(res.Answers), len(auto.Answers))
				}
				if best < 0 || res.Stats.Inferences < best {
					best, bestBy = res.Stats.Inferences, s
				}
				if w, ok := pinned[sh.Name][s]; ok {
					st := res.Stats
					got := work{inferences: st.Inferences}
					if s == lincount.CountingRuntime {
						got.nodes, got.tuples = int64(st.CountingNodes), int64(st.AnswerTuples)
					} else {
						got.derived = st.DerivedFacts
					}
					if got != w {
						t.Errorf("%s did %+v, want %+v", s, got, w)
					}
				}
			}
			if 2*auto.Stats.Inferences > 3*best {
				t.Errorf("auto (%s) made %d inferences, more than 1.5× the %d of %s",
					auto.Strategy, auto.Stats.Inferences, best, bestBy)
			}
		})
	}
}
