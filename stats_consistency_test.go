package lincount

import (
	"strings"
	"testing"
)

// engineEvaluated reports whether a strategy runs through the bottom-up
// rule engine (and therefore fills the engine counter family:
// Inferences, DerivedFacts, Iterations).
func engineEvaluated(s Strategy) bool {
	switch s {
	case Naive, SemiNaive, Magic, MagicSup, CountingClassic, Counting, CountingReduced:
		return true
	}
	return false
}

// TestStatsConsistencyAcrossStrategies asserts, for every concrete
// strategy on the seed same-generation program, that the counters that
// apply to the strategy are non-zero and self-consistent, and that an
// evaluation with a Tracer attached returns byte-identical answers to one
// without.
func TestStatsConsistencyAcrossStrategies(t *testing.T) {
	p := MustParseProgram(sgSrc)
	q := "?- sg(a,Y)."
	for _, s := range Strategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			db := NewDatabase(p)
			if err := db.LoadFacts(sgFacts); err != nil {
				t.Fatal(err)
			}
			plain := mustEval(t, p, db, q, s)
			st := plain.Stats
			if len(plain.Answers) == 0 {
				t.Fatal("no answers")
			}
			if st.ArenaValues == 0 {
				t.Errorf("ArenaValues = 0, want > 0 (stats %+v)", st)
			}
			if st.AnswerTuples == 0 {
				t.Errorf("AnswerTuples = 0, want > 0 (stats %+v)", st)
			}
			if engineEvaluated(s) {
				if st.Inferences == 0 || st.DerivedFacts == 0 || st.Iterations == 0 {
					t.Errorf("engine counters zero: %+v", st)
				}
				if int64(st.AnswerTuples) > st.DerivedFacts {
					t.Errorf("AnswerTuples (%d) > DerivedFacts (%d)", st.AnswerTuples, st.DerivedFacts)
				}
			}
			switch s {
			case CountingRuntime:
				if st.Probes == 0 || st.CountingNodes == 0 {
					t.Errorf("counting-runtime counters zero: %+v", st)
				}
			case QSQ:
				if st.Probes == 0 {
					t.Errorf("qsq Probes = 0: %+v", st)
				}
			case CountingClassic, Counting, CountingReduced:
				if st.CountingNodes == 0 {
					t.Errorf("CountingNodes = 0 for %s: %+v", s, st)
				}
			}

			// A traced run must not change the answers in any way.
			db2 := NewDatabase(p)
			if err := db2.LoadFacts(sgFacts); err != nil {
				t.Fatal(err)
			}
			tr := NewTracer()
			traced, err := Eval(p, db2, q, s, WithTracer(tr))
			if err != nil {
				t.Fatalf("traced Eval(%v): %v", s, err)
			}
			if got, want := rows(traced), rows(plain); got != want {
				t.Errorf("traced answers differ:\n  traced:   %s\n  untraced: %s", got, want)
			}
			if len(tr.SpanNames()) == 0 {
				t.Error("tracer recorded no spans")
			}
			if engineEvaluated(s) {
				if len(traced.RuleProfile) == 0 {
					t.Fatalf("no RuleProfile for engine strategy %s", s)
				}
				var inf int64
				runs := 0
				for _, rp := range traced.RuleProfile {
					if rp.Rule == "" {
						t.Error("empty rule text in profile")
					}
					inf += rp.Inferences
					runs += rp.Runs
				}
				if runs == 0 {
					t.Error("rule profile recorded no runs")
				}
				if inf != traced.Stats.Inferences {
					t.Errorf("profile inferences %d != Stats.Inferences %d", inf, traced.Stats.Inferences)
				}
			} else if len(traced.RuleProfile) != 0 {
				t.Errorf("unexpected RuleProfile for %s", s)
			}
		})
	}
}

// TestTracerCapturesStrategyPhases asserts the trace contains the spans
// documented in docs/INTERNALS.md for each evaluation family.
func TestTracerCapturesStrategyPhases(t *testing.T) {
	cases := []struct {
		strategy Strategy
		want     []string
	}{
		{SemiNaive, []string{"eval", "parse", "iteration", "answers"}},
		{Magic, []string{"eval", "adorn", "rewrite:magic", "iteration"}},
		{CountingReduced, []string{"eval", "rewrite:counting-reduced", "iteration"}},
		{CountingRuntime, []string{"eval", "counting.build", "counting.answer"}},
		{QSQ, []string{"eval", "qsq.pass"}},
	}
	p := MustParseProgram(sgSrc)
	for _, c := range cases {
		t.Run(c.strategy.String(), func(t *testing.T) {
			db := NewDatabase(p)
			if err := db.LoadFacts(sgFacts); err != nil {
				t.Fatal(err)
			}
			tr := NewTracer()
			if _, err := Eval(p, db, "?- sg(a,Y).", c.strategy, WithTracer(tr)); err != nil {
				t.Fatal(err)
			}
			names := strings.Join(tr.SpanNames(), "\n")
			for _, w := range c.want {
				if !strings.Contains(names, w) {
					t.Errorf("trace missing span %q; have:\n%s", w, names)
				}
			}
		})
	}
}
