package bench

import (
	"strings"
	"testing"
)

// TestExampleChecksAllPass runs the E-series reproduction checks; every
// row's Err must be empty.
func TestExampleChecksAllPass(t *testing.T) {
	for _, table := range []Table{
		E1SameGeneration(),
		E2ArcClassification(),
		E3MultiRule(),
		E4SharedVariables(),
		E5Cyclic(),
		E6MixedLinear(),
	} {
		for _, r := range table.Rows {
			if r.Err != "" {
				t.Errorf("%s: %s: %s", table.ID, r.Workload, r.Err)
			}
		}
	}
}

// checkReading compares what E2 reads of a counting set with the wanted
// arc classes and node multiplicities.
func checkReading(t *testing.T, facts string, classes, mults map[string]string) {
	t.Helper()
	cs, err := countingSetOf(sgExample, facts, "?- sg(a,Y).")
	if err != nil {
		t.Fatal(err)
	}
	for arc, want := range classes {
		if got := cs.class(arc[:1], arc[1:]); got != want {
			t.Errorf("arc (%c,%c) classified %s, want %s", arc[0], arc[1], got, want)
		}
	}
	for n, want := range mults {
		if got := cs.multiplicity(n); got != want {
			t.Errorf("node %s multiplicity %s, want %s", n, got, want)
		}
	}
}

// TestExample2Classification checks the paper's Example 2 arc classes as
// the counting runtime's depth-first exploration records them.
func TestExample2Classification(t *testing.T) {
	checkReading(t, "up(a,b). up(a,c). up(d,b). up(c,b). up(b,c). up(a,d).",
		map[string]string{
			"ab": "tree", "bc": "tree", "ad": "tree",
			"ac": "forward", "db": "cross", "cb": "back",
		}, nil)
}

// TestExample2Multiplicity checks the paper's node taxonomy on Example 2:
// a and d are single, b and c recurring.
func TestExample2Multiplicity(t *testing.T) {
	checkReading(t, "up(a,b). up(a,c). up(d,b). up(c,b). up(b,c). up(a,d).", nil,
		map[string]string{"a": "single", "d": "single", "b": "recurring", "c": "recurring"})
}

// TestMultipleWithoutCycle: in a diamond the join is reached twice, by a
// tree arc and a cross arc, so it has multiple paths and the rest one each.
func TestMultipleWithoutCycle(t *testing.T) {
	checkReading(t, "up(a,b). up(a,c). up(b,d). up(c,d).",
		map[string]string{"ab": "tree", "bd": "tree", "ac": "tree", "cd": "cross"},
		map[string]string{"a": "single", "b": "single", "c": "single", "d": "multiple"})
}

// TestNotReached: nodes the source cannot reach are not in the counting
// set, and neither are their arcs, even an arc into a reached node.
func TestNotReached(t *testing.T) {
	checkReading(t, "up(a,b). up(c,d). up(e,a).",
		map[string]string{"ab": "tree", "cd": "unreached", "ea": "unreached"},
		map[string]string{"a": "single", "b": "single", "c": "not-reached", "d": "not-reached", "e": "not-reached"})
}

// TestSelfLoopIsBackArcAndRecurring: a self-loop on the source is a back
// arc, and it makes every node reachable from the source recurring.
func TestSelfLoopIsBackArcAndRecurring(t *testing.T) {
	checkReading(t, "up(a,a). up(a,b).",
		map[string]string{"aa": "back", "ab": "tree"},
		map[string]string{"a": "recurring", "b": "recurring"})
}

// TestP1ShapeHolds verifies the headline result with small parameters: the
// counting strategies derive fewer facts than magic on a wide cylinder, and
// all strategies agree on the answer count.
func TestP1ShapeHolds(t *testing.T) {
	table := P1MagicVsCounting([]int{6}, 8)
	var magicFacts, countingFacts int64
	answerCounts := map[int]bool{}
	for _, r := range table.Rows {
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Workload, r.Strategy, r.Err)
		}
		answerCounts[r.Answers] = true
		switch r.Strategy {
		case "magic":
			magicFacts = r.DerivedFacts
		case "counting":
			countingFacts = r.DerivedFacts
		}
	}
	if len(answerCounts) != 1 {
		t.Errorf("strategies disagree on answers: %v", answerCounts)
	}
	if countingFacts >= magicFacts {
		t.Errorf("counting derived %d facts, magic %d: expected counting < magic",
			countingFacts, magicFacts)
	}
}

// TestP2ShapeHolds verifies the n² vs n counting-set claim on a shortcut
// chain: the list-based counting set is superlinear in the runtime's node
// count.
func TestP2ShapeHolds(t *testing.T) {
	table := P2CountingSetSize([]int{48})
	var listSet, nodeSet int
	for _, r := range table.Rows {
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Workload, r.Strategy, r.Err)
		}
		switch r.Strategy {
		case "counting":
			listSet = r.CountingNodes
		case "counting-runtime":
			nodeSet = r.CountingNodes
		}
	}
	if nodeSet != 49 {
		t.Errorf("runtime counting set = %d, want 49 nodes", nodeSet)
	}
	if listSet < 5*nodeSet {
		t.Errorf("list-based counting set = %d, not superlinear vs %d nodes", listSet, nodeSet)
	}
}

// TestP3ShapeHolds: on cyclic chains the runtime and magic agree and the
// classic strategy reports divergence.
func TestP3ShapeHolds(t *testing.T) {
	table := P3CyclicData([]int{24}, 6)
	var answers = map[string]int{}
	for _, r := range table.Rows {
		if r.Strategy == "counting-classic" {
			if r.Err == "" {
				t.Error("classic counting did not report divergence on cyclic data")
			}
			continue
		}
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Workload, r.Strategy, r.Err)
		}
		answers[r.Strategy] = r.Answers
	}
	if answers["counting-runtime"] != answers["magic"] || answers["magic"] == 0 {
		t.Errorf("answer counts: %v", answers)
	}
}

// TestP4ShapeHolds: the reduced right-linear program's answer relation is
// not replicated per level.
func TestP4ShapeHolds(t *testing.T) {
	table := P4Reduction(64)
	var reduced, magic Row
	for _, r := range table.Rows {
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Workload, r.Strategy, r.Err)
		}
		if strings.HasPrefix(r.Workload, "right-linear") {
			switch r.Strategy {
			case "counting-reduced":
				reduced = r
			case "magic":
				magic = r
			}
		}
	}
	if reduced.AnswerTuples == 0 || magic.AnswerTuples == 0 {
		t.Fatalf("missing rows: reduced=%+v magic=%+v", reduced, magic)
	}
	if reduced.AnswerTuples >= magic.AnswerTuples {
		t.Errorf("reduced answer tuples %d >= magic %d", reduced.AnswerTuples, magic.AnswerTuples)
	}
	if reduced.Answers != magic.Answers {
		t.Errorf("answer sets differ: %d vs %d", reduced.Answers, magic.Answers)
	}
}

// TestP5AllAgree: every strategy answers multi-rule programs identically.
func TestP5AllAgree(t *testing.T) {
	table := P5MultiRule(24, []int{1, 3})
	counts := map[string]int{}
	for _, r := range table.Rows {
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Workload, r.Strategy, r.Err)
		}
		key := r.Workload
		if prev, ok := counts[key]; ok && prev != r.Answers {
			t.Errorf("%s: answer counts differ (%d vs %d)", key, prev, r.Answers)
		}
		counts[key] = r.Answers
	}
}

// TestP6AblationRuns: both variants complete and count cells.
func TestP6AblationRuns(t *testing.T) {
	table := P6PointerAblation([]int{500})
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	hc, st := table.Rows[0], table.Rows[1]
	if hc.Inferences >= st.Inferences {
		t.Errorf("hash-consed allocated %d cells, structural %d: sharing not visible",
			hc.Inferences, st.Inferences)
	}
}

// TestP7Runs and sanity-checks the answer count (exactly one per chain).
func TestP7Runs(t *testing.T) {
	table := P7PhaseWork([]int{32})
	for _, r := range table.Rows {
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Workload, r.Strategy, r.Err)
		}
		if r.Answers != 1 {
			t.Errorf("%s/%s answers = %d, want 1", r.Workload, r.Strategy, r.Answers)
		}
	}
}

// TestP10ShapeHolds: rewritten strategies are flat in the number of
// irrelevant branches while semi-naive grows linearly.
func TestP10ShapeHolds(t *testing.T) {
	table := P10Selectivity(16, []int{0, 8})
	inf := map[string][2]int64{}
	idx := map[string]int{"branchy(d=16,N=0)": 0, "branchy(d=16,N=8)": 1}
	for _, r := range table.Rows {
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Workload, r.Strategy, r.Err)
		}
		v := inf[r.Strategy]
		v[idx[r.Workload]] = r.Inferences
		inf[r.Strategy] = v
	}
	if inf["semi-naive"][1] <= 4*inf["semi-naive"][0] {
		t.Errorf("semi-naive did not scale with the database: %v", inf["semi-naive"])
	}
	for _, s := range []string{"magic", "counting", "counting-runtime"} {
		if inf[s][1] != inf[s][0] {
			t.Errorf("%s inferences changed with irrelevant data: %v", s, inf[s])
		}
	}
}

func TestTableCSV(t *testing.T) {
	table := Table{ID: "X", Rows: []Row{
		{Workload: "w,1", Strategy: "s", Answers: 2},
	}}
	out := table.CSV()
	if !strings.Contains(out, "\"w,1\"") || !strings.Contains(out, "experiment,workload") {
		t.Errorf("CSV:\n%s", out)
	}
}

func TestTableFormat(t *testing.T) {
	table := Table{ID: "X", Title: "demo", Note: "a note", Rows: []Row{
		{Workload: "w", Strategy: "s", Answers: 1},
		{Workload: "w2", Strategy: "s2", Err: "boom"},
	}}
	out := table.Format()
	for _, want := range []string{"== X: demo ==", "a note", "workload", "boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}
