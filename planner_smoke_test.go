package lincount_test

// Planner smoke quartet (make planner-smoke): for each of the four
// representative program shapes — acyclic same-generation (the
// sg-acyclic benchmark shape at its own depth and fan), cyclic
// same-generation, left-linear and right-linear transitive closure —
// the planner must (a) rank the right strategy first with real data
// loaded: the reduced rewrite where the program has one, else the
// counting runtime, acyclic data or not, (b) produce a chain whose head
// evaluates successfully, and (c) return the same answers as plain
// semi-naive. Statistics sharpen estimates; they never reorder the
// chain.

import (
	"reflect"
	"testing"

	"lincount"
	"lincount/internal/workload"
)

func TestPlannerSmoke(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		facts string
		query string
		want  lincount.Strategy
	}{
		{
			name:  "acyclic-sg",
			src:   workload.SGProgram,
			facts: workload.Cylinder(19, 64, 2),
			query: "?- sg(" + workload.CylinderQuery + ",Y).",
			want:  lincount.CountingRuntime,
		},
		{
			name:  "cyclic-sg",
			src:   workload.SGProgram,
			facts: workload.CyclicChain(32, 8),
			query: "?- sg(u0,Y).",
			want:  lincount.CountingRuntime,
		},
		{
			name: "left-linear",
			src: `tc(X,Y) :- arc(X,Y).
tc(X,Y) :- tc(X,Z), arc(Z,Y).
`,
			facts: workload.Chain(64),
			query: "?- tc(n0,Y).",
			want:  lincount.CountingReduced,
		},
		{
			name:  "right-linear",
			src:   workload.RightLinearProgram,
			facts: workload.RightLinearChain(64, 4),
			query: "?- p(u0,Y).",
			want:  lincount.CountingReduced,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := lincount.ParseProgram(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			db := lincount.NewDatabase(p)
			if err := db.LoadFacts(tc.facts); err != nil {
				t.Fatal(err)
			}
			choices, err := lincount.PlannerChoices(p, db, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if len(choices) == 0 {
				t.Fatal("planner returned no candidates")
			}
			if choices[0].Strategy != tc.want {
				for _, c := range choices {
					t.Logf("  cost %.0f  %s  (%s)", c.Cost, c.Strategy, c.Reason)
				}
				t.Fatalf("planner ranked %s first, want %s", choices[0].Strategy, tc.want)
			}
			if choices[len(choices)-1].Strategy != lincount.SemiNaive {
				t.Errorf("chain does not end in semi-naive: %v", choices)
			}
			for i := 1; i < len(choices); i++ {
				if choices[i].Cost < choices[i-1].Cost {
					t.Errorf("chain not sorted by cost: %v before %v", choices[i-1], choices[i])
				}
			}

			res, err := lincount.Eval(p, db, tc.query, lincount.Auto)
			if err != nil {
				t.Fatalf("auto evaluation failed: %v", err)
			}
			if res.Resolved != tc.want {
				t.Errorf("auto resolved to %s, want %s", res.Resolved, tc.want)
			}
			if len(res.Degraded) != 0 {
				t.Errorf("planner's first choice degraded: %+v", res.Degraded)
			}
			ref, err := lincount.Eval(p, db, tc.query, lincount.SemiNaive)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Answers, ref.Answers) {
				t.Errorf("planner choice %s and semi-naive disagree: %d vs %d answers",
					res.Strategy, len(res.Answers), len(ref.Answers))
			}
		})
	}
}
