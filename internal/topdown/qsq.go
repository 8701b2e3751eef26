// Package topdown implements the Query-SubQuery (QSQ) method (Vieille
// 1986), the top-down strategy the Bancilhon–Ramakrishnan comparisons —
// reference [4] of the paper — run beside magic sets and counting. It
// keeps, per adorned predicate, the *input* (bound-argument) tuples asked
// so far and the *answers* derived, and passes bindings sideways through
// rule bodies until both reach a fixpoint (the iterative QSQI variant).
// The sideways passing is the engine's: every rule body is a prepared
// solve (engine.Matcher.PrepareTerms) fed batches of input rows. Its
// independent checks are the semi-naive baseline (the oracle) and the
// executor's brute-force reference tests.
package topdown

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"

	"lincount/internal/adorn"
	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/faultinject"
	"lincount/internal/limits"
	"lincount/internal/obsv"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// ErrUnsupported is returned for negated derived literals (stratified
// top-down negation is a much larger machine than this reproduction needs).
var ErrUnsupported = errors.New("topdown: negated derived literals are not supported by QSQ")

// feedRows is how many input rows one SolveRows run takes.
const feedRows = 256

// Result of a QSQ evaluation. Its Stats count global sweeps as
// Iterations, full-body solutions (rederivations included) as Inferences,
// the executor's probes as Probes, the answer sets' total size as both
// AnswerTuples and DerivedFacts, and the input (subquery) sets' total size
// as CountingNodes — the operational twin of the magic set: an all-free
// predicate's empty subquery is not counted, as it has no magic predicate.
type Result struct {
	// Answers holds the goal's answer tuples matching the query constants.
	Answers []database.Tuple
	Stats   engine.Stats
}

// state is the per-adorned-predicate bookkeeping.
type state struct {
	input   *database.Relation // bound-argument tuples
	answers *database.Relation // full-arity tuples
	fed     int                // input length at the start of the pass
}

// site is one prepared solve, fed the input rows of head: a whole rule
// body, whose solutions are head answers, or the body before a derived
// literal, whose solutions are subqueries into the callee's input (dst).
type site struct {
	head   *state
	ps     *engine.PreparedSolve
	dst    *database.Relation
	answer bool
}

type evaluator struct {
	preds map[symtab.Sym]*state
	sites []site
	m     *engine.Matcher
	stats engine.Stats
	// grew is set whenever an input or answer tuple is new.
	grew bool
	// facts counts answer tuples against maxFacts.
	facts, maxFacts, maxPasses int
	check                      *limits.Checker
	inject                     *faultinject.Injector
	tracer                     *obsv.Tracer
	// rows holds the input rows of one run; out buffers its solutions.
	rows, out []term.Value
}

// tally recomputes the set-size counters from the per-predicate state;
// safe to call mid-fixpoint or after a failure.
func (ev *evaluator) tally() {
	ev.stats.CountingNodes, ev.stats.AnswerTuples, ev.stats.ArenaValues = 0, 0, 0
	for _, st := range ev.preds {
		if st.input.Arity() > 0 {
			ev.stats.CountingNodes += st.input.Len()
		}
		ev.stats.AnswerTuples += st.answers.Len()
		ev.stats.ArenaValues += int64(st.input.ArenaLen() + st.answers.ArenaLen())
	}
	ev.stats.DerivedFacts = int64(ev.stats.AnswerTuples)
	ev.stats.Probes = ev.m.Probes
}

// Options bounds an evaluation.
type Options struct {
	// MaxPasses bounds global sweeps (0 = 1,000,000).
	MaxPasses int
	// MaxFacts bounds the answer tuples (0 = engine.DefaultMaxDerivedFacts).
	MaxFacts int
	// Inject, when non-nil, is hit once per input row fed and per sweep.
	Inject *faultinject.Injector
	// Tracer, when non-nil, records one span per sweep with the
	// cumulative inference and probe counts.
	Tracer *obsv.Tracer
	// StatsOut, when non-nil, receives the Stats even when the fixpoint
	// fails partway (pass limit, injected fault, cancellation).
	StatsOut *engine.Stats
}

// Eval runs QSQ for the adorned query over db.
func Eval(a *adorn.Adorned, db *database.Database, opts Options) (*Result, error) {
	return EvalContext(context.Background(), a, db, opts)
}

// EvalContext is Eval under a context, polled once per sweep and by the
// executor; cancellation returns an error wrapping context.Cause(ctx).
func EvalContext(ctx context.Context, a *adorn.Adorned, db *database.Database, opts Options) (*Result, error) {
	bank := a.Program.Bank
	derived := map[symtab.Sym]*database.Relation{}
	ev := &evaluator{
		preds:     map[symtab.Sym]*state{},
		m:         engine.NewMatcher(bank, db, derived),
		maxPasses: cmp.Or(opts.MaxPasses, 1_000_000),
		maxFacts:  cmp.Or(opts.MaxFacts, engine.DefaultMaxDerivedFacts),
		check:     limits.NewChecker(ctx, "topdown"),
		inject:    opts.Inject,
		tracer:    opts.Tracer,
	}
	ev.m.SetChecker(ev.check)
	if opts.StatsOut != nil {
		// Even on error: Auto's degradation reports the partial work.
		defer func() {
			ev.tally()
			*opts.StatsOut = ev.stats
		}()
	}
	for p, pattern := range a.Patterns {
		st := &state{
			input:   database.NewRelation(strings.Count(pattern, "b")),
			answers: database.NewRelation(len(pattern)),
		}
		ev.preds[p] = st
		derived[p] = st.answers
	}
	for _, r := range a.Program.Rules {
		if err := ev.prepare(a, r); err != nil {
			return nil, err
		}
	}

	// Seed the goal's input.
	goal := ev.preds[a.Query.Goal.Pred]
	if goal == nil {
		return nil, fmt.Errorf("topdown: goal %s has no rules", ast.FormatLiteral(bank, a.Query.Goal))
	}
	// Adornment binds only ground goal arguments, which are constants.
	seed := database.Tuple{}
	boundArgs, _ := adorn.BoundArgs(a.Query.Goal, a.GoalAdornment)
	for _, t := range boundArgs {
		seed = append(seed, t.Value)
	}
	goal.input.Insert(seed)

	// Global fixpoint: sweep every rule against every input until no new
	// input or answer appears.
	for pass := 0; ; pass++ {
		if err := ev.check.Check(); err != nil {
			return nil, err
		}
		if err := ev.inject.Hit(faultinject.SiteTopdownPass); err != nil {
			return nil, err
		}
		if pass >= ev.maxPasses {
			return nil, &limits.ResourceLimitError{
				Kind: limits.KindPasses, Limit: int64(ev.maxPasses),
				Used: int64(pass), Component: "topdown",
			}
		}
		ev.stats.Iterations++
		ev.grew = false
		for _, st := range ev.preds {
			st.fed = st.input.Len()
		}
		psp := ev.tracer.Begin("qsq", "qsq.pass")
		for i := range ev.sites {
			if err := ev.feed(&ev.sites[i]); err != nil {
				psp.End(obsv.A("pass", int64(pass)))
				return nil, err
			}
		}
		psp.End(obsv.A("pass", int64(pass)),
			obsv.A("inferences", ev.stats.Inferences),
			obsv.A("probes", ev.m.Probes))
		if !ev.grew {
			break
		}
	}
	ev.tally()

	// The goal's answers matching the query constants. Clone: t is reused
	// by the executor and the result escapes.
	var out []database.Tuple
	ps, err := ev.m.PrepareTerms([]ast.Literal{a.Query.Goal}, nil, a.Query.Goal.Args, 0)
	if err == nil {
		err = ps.SolveRows(nil, 1, func(t []term.Value) error {
			out = append(out, database.Tuple(t).Clone())
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return &Result{Answers: out, Stats: ev.stats}, nil
}

// prepare compiles rule r's sites: the whole body from the head's bound
// arguments to the head, then, for each derived body literal, the body
// before it from the same bindings to the literal's bound arguments.
func (ev *evaluator) prepare(a *adorn.Adorned, r ast.Rule) error {
	bank, head := a.Program.Bank, ev.preds[r.Head.Pred]
	given, _ := adorn.BoundArgs(r.Head, a.Patterns[r.Head.Pred])
	ps, err := ev.m.PrepareTerms(r.Body, given, r.Head.Args, 0)
	if err != nil {
		return fmt.Errorf("topdown: rule %s: %w", ast.FormatRule(bank, r), err)
	}
	ev.sites = append(ev.sites, site{head: head, ps: ps, dst: head.answers, answer: true})
	for k, l := range r.Body {
		callee, derived := ev.preds[l.Pred]
		if !derived {
			continue
		}
		if l.Negated {
			return fmt.Errorf("%w: %s", ErrUnsupported, ast.FormatLiteral(bank, l))
		}
		want, _ := adorn.BoundArgs(l, a.Patterns[l.Pred])
		if ps, err = ev.m.PrepareTerms(r.Body[:k], given, want, 0); err != nil {
			return fmt.Errorf("topdown: rule %s: call %s: %w",
				ast.FormatRule(bank, r), ast.FormatLiteral(bank, l), err)
		}
		ev.sites = append(ev.sites, site{head: head, ps: ps, dst: callee.input})
	}
	return nil
}

// feed runs site s over its head's input rows of this pass, feedRows per
// run. Solutions are inserted after each run: the executor delivers them
// up to a batch late, so what a run reads must not change during it.
func (ev *evaluator) feed(s *site) error {
	w := s.dst.Arity()
	for lo := 0; lo < s.head.fed; lo += feedRows {
		n := min(feedRows, s.head.fed-lo)
		ev.rows = ev.rows[:0]
		for id := lo; id < lo+n; id++ {
			if err := ev.inject.Hit(faultinject.SiteTopdownProbe); err != nil {
				return err
			}
			ev.rows = append(ev.rows, s.head.input.Row(database.RowID(id))...)
		}
		sols := 0
		ev.out = ev.out[:0]
		err := s.ps.SolveRows(ev.rows, n, func(t []term.Value) error {
			sols++
			ev.out = append(ev.out, t...)
			return nil
		})
		if err != nil {
			return err
		}
		if s.answer {
			ev.stats.Inferences += int64(sols)
		}
		for k := 0; k < sols; k++ {
			if !s.dst.Insert(database.Tuple(ev.out[k*w : (k+1)*w])) {
				continue
			}
			ev.grew = true
			if s.answer {
				if ev.facts++; ev.facts > ev.maxFacts {
					return &limits.ResourceLimitError{
						Kind: limits.KindFacts, Limit: int64(ev.maxFacts),
						Used: int64(ev.facts), Component: "topdown",
					}
				}
			}
		}
	}
	return nil
}
