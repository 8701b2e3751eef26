package plan

import (
	"context"
	"sync/atomic"

	"lincount/internal/counting"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/faultinject"
	"lincount/internal/obsv"
	"lincount/internal/symtab"
	"lincount/internal/topdown"
)

// ExecOptions configures one execution of a compiled plan. The zero value
// runs with every evaluator's default budgets and no observers.
type ExecOptions struct {
	// MaxIterations bounds fixpoint iterations (QSQ: global passes).
	MaxIterations int
	// MaxFacts bounds derived tuples (QSQ: answer tuples; the counting
	// runtime: nodes plus tuples).
	MaxFacts int
	// Inject, when non-nil, arms the evaluators' fault-injection sites.
	Inject *faultinject.Injector
	// Tracer, when non-nil, records the evaluators' spans and an
	// "answers" span around answer extraction.
	Tracer *obsv.Tracer
	// Profile enables per-rule profiles (Result.Rules) without a tracer.
	Profile bool
	// Progress, when non-nil, mirrors the derived-fact count as it grows
	// (engine-evaluated plans).
	Progress *atomic.Int64
	// Sizes supplies the planner's cardinality estimates to the engine.
	Sizes engine.SizeHint
	// StatsOut, when non-nil, receives the work counters even when
	// execution fails partway — the partial work of a degraded attempt.
	StatsOut *engine.Stats
}

// RuntimeOptions are the counting runtime's options under o: the shared
// fact budget bounds its nodes plus tuples.
func (o ExecOptions) RuntimeOptions() counting.RuntimeOptions {
	return counting.RuntimeOptions{MaxTuples: o.MaxFacts, Inject: o.Inject, Tracer: o.Tracer}
}

// Result is the outcome of one execution.
type Result struct {
	// Answers are the goal's answer tuples, neither deduplicated nor in
	// any particular order.
	Answers []database.Tuple
	// Strategy is the strategy that ran: the plan's, or SemiNaive for a
	// purely extensional goal.
	Strategy Strategy
	// Rewritten and RewrittenQuery are the rewritten program and goal of
	// the plan that ran.
	Rewritten, RewrittenQuery string
	Stats                     engine.Stats
	// Rules holds per-rule profiles of engine-evaluated plans when
	// profiling was on.
	Rules []engine.RuleStat
}

// Execute runs the plan against db: the engine over the (rewritten)
// program, the counting runtime, or QSQ.
func (cq *CompiledQuery) Execute(ctx context.Context, db *database.Database, opts ExecOptions) (*Result, error) {
	switch {
	case cq.Extensional:
		// Every strategy delegates a purely extensional goal to semi-naive
		// evaluation of the original program.
		return cq.execEngine(ctx, db, opts, SemiNaive)
	case cq.Strategy == CountingRuntime:
		return cq.execRuntime(ctx, db, opts)
	case cq.Strategy == QSQ:
		res, err := topdown.EvalContext(ctx, cq.Adorned, db, topdown.Options{
			MaxPasses: opts.MaxIterations, MaxFacts: opts.MaxFacts,
			Inject: opts.Inject, Tracer: opts.Tracer, StatsOut: opts.StatsOut,
		})
		if err != nil {
			return nil, err
		}
		return &Result{Answers: res.Answers, Strategy: QSQ, Stats: res.Stats}, nil
	default:
		return cq.execEngine(ctx, db, opts, cq.Strategy)
	}
}

// execEngine evaluates the plan's program bottom-up and reads answers at
// its entry query, reconstructing them through the counting rewrite's
// answer predicates when the plan carries one.
func (cq *CompiledQuery) execEngine(ctx context.Context, db *database.Database, opts ExecOptions, s Strategy) (*Result, error) {
	res, err := engine.EvalContext(ctx, cq.Program, db, engine.Options{
		Naive:           s == Naive,
		MaxIterations:   opts.MaxIterations,
		MaxDerivedFacts: opts.MaxFacts,
		Inject:          opts.Inject,
		Tracer:          opts.Tracer,
		Profile:         opts.Profile,
		FactProgress:    opts.Progress,
		StatsOut:        opts.StatsOut,
		Sizes:           opts.Sizes,
	})
	if err != nil {
		return nil, err
	}
	asp := opts.Tracer.Begin("eval", "answers")
	out := &Result{
		Answers:        engine.Answers(res, db, cq.EntryQuery),
		Strategy:       s,
		Rewritten:      cq.RewrittenText,
		RewrittenQuery: cq.RewrittenQueryText,
		Stats:          res.Stats,
		Rules:          res.Rules,
	}
	size := func(pred symtab.Sym) int {
		if rel := res.Relation(pred); rel != nil {
			return rel.Len()
		}
		return 0
	}
	if c := cq.Counting; c != nil {
		out.Answers = c.ReconstructAnswers(out.Answers)
		for p := range c.CountingPreds {
			out.Stats.CountingNodes += size(p)
		}
		for p := range c.AnswerPreds {
			out.Stats.AnswerTuples += size(p)
		}
	} else {
		out.Stats.AnswerTuples = size(cq.EntryQuery.Goal.Pred)
		if cq.Magic != nil {
			for p := range cq.Magic.MagicPreds {
				out.Stats.CountingNodes += size(p) // the magic set, for comparison
			}
		}
	}
	asp.End(obsv.A("rows", int64(len(out.Answers))))
	return out, nil
}

// execRuntime runs the pointer-based counting runtime (Algorithm 2) over
// the plan's analysis.
func (cq *CompiledQuery) execRuntime(ctx context.Context, db *database.Database, opts ExecOptions) (*Result, error) {
	rt, err := counting.NewRuntimeContext(ctx, cq.Analysis, db, opts.RuntimeOptions())
	if err != nil {
		return nil, err
	}
	if opts.StatsOut != nil {
		defer func() { *opts.StatsOut = rt.Stats().EngineStats() }()
	}
	rres, err := rt.Run()
	if err != nil {
		return nil, err
	}
	asp := opts.Tracer.Begin("eval", "answers")
	out := &Result{
		Answers:        counting.ReconstructRuntimeAnswers(cq.Analysis, rres.Answers),
		Strategy:       CountingRuntime,
		Rewritten:      cq.RewrittenText,
		RewrittenQuery: cq.RewrittenQueryText,
		Stats:          rres.Stats.EngineStats(),
	}
	asp.End(obsv.A("rows", int64(len(out.Answers))))
	return out, nil
}
