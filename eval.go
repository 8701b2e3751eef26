package lincount

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"lincount/internal/ast"
	"lincount/internal/counting"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/faultinject"
	"lincount/internal/magic"
	"lincount/internal/obsv"
	"lincount/internal/parser"
	"lincount/internal/plan"
	"lincount/internal/symtab"
	"lincount/internal/topdown"
)

// Option tunes an evaluation.
type Option func(*evalConfig)

type evalConfig struct {
	// exec carries the budgets, observers, fault injector and (below
	// evalCore, always non-nil) stats sink into plan execution; the sink
	// receives the work counters even when an attempt fails partway.
	exec        plan.ExecOptions
	maxDuration time.Duration
	noCache     bool
	faultSeed   int64
	faultSpec   string

	// Compilation state threaded by the facade once per evaluation: the
	// normalized query text (the plan-cache key's query component) and
	// the shared adornment/analysis every candidate strategy compiles
	// against.
	queryText string
	shared    *plan.Shared
}

// WithoutPlanCache makes this evaluation bypass the program's plan
// cache entirely: nothing is looked up and nothing is stored, so every
// compilation pass runs from scratch. This is the cold path —
// benchmarks use it to measure compilation cost, and it is the escape
// hatch if a cached plan is ever suspected of misbehaving.
func WithoutPlanCache() Option {
	return func(c *evalConfig) { c.noCache = true }
}

// Tracer records a structured trace of an evaluation: spans for the
// facade phases (parse, plan, the compile passes, answers), engine
// components, fixpoint iterations and rule runs, counting-runtime
// phases and worklist progress, QSQ passes, and each Auto fallback
// attempt. A nil *Tracer is a valid disabled tracer whose hook sites
// cost one pointer comparison. Render the result with WriteText or
// WriteChromeJSON (Chrome trace-event JSON, loadable in chrome://tracing
// and Perfetto).
type Tracer = obsv.Tracer

// NewTracer returns an empty Tracer ready to pass to WithTracer.
func NewTracer() *Tracer { return obsv.NewTracer() }

// WithTracer records the evaluation's structured trace into t and
// enables per-rule profiling (Result.RuleProfile). Tracing is opt-in:
// without this option the hook sites are single nil checks and the
// evaluation allocates nothing extra.
func WithTracer(t *Tracer) Option {
	return func(c *evalConfig) { c.exec.Tracer = t }
}

// WithRuleProfile enables per-rule profiling (Result.RuleProfile) for
// the engine strategies without recording a trace: runs, inferences,
// derived tuples and wall-clock time per rule. Cheaper than WithTracer
// (clock reads per rule run, no event buffer) — the query server's
// slow-query log uses it to attribute a slow request's time.
func WithRuleProfile() Option {
	return func(c *evalConfig) { c.exec.Profile = true }
}

// WithFactProgress mirrors the evaluation's derived-fact count into c
// as it grows (one atomic add per derived tuple) so a concurrent
// observer — the query server's active-query registry — can report
// facts-so-far for an in-flight evaluation. Engine strategies only; the
// counting runtime and QSQ report their work in Stats when done. The
// counter is not reset: pass a fresh one per evaluation.
func WithFactProgress(c *atomic.Int64) Option {
	return func(cc *evalConfig) { cc.exec.Progress = c }
}

// WithMaxIterations bounds fixpoint iterations (engine strategies).
func WithMaxIterations(n int) Option {
	return func(c *evalConfig) { c.exec.MaxIterations = n }
}

// WithMaxDerivedFacts bounds the number of derived tuples. This is the
// evaluation's shared budget: under Auto it is charged across every
// degradation attempt (a fallback only gets what the failed attempts
// left), so the cap holds for the evaluation as a whole.
func WithMaxDerivedFacts(n int) Option {
	return func(c *evalConfig) { c.exec.MaxFacts = n }
}

// WithFaultInjection arms deterministic fault injection for this
// evaluation: spec is a comma-separated schedule of clauses
// "site=kind@N" (fire on the Nth hit) or "site=kind~P" (fire with
// probability P per hit, seeded by seed), where kind is err, delay
// (with a ":duration" suffix) or cancel, and site names an evaluator
// hook point (engine.insert, engine.probe, engine.iter, counting.node,
// counting.step, topdown.probe, topdown.pass, or * for all). QSQ hits
// topdown.probe once per input row it feeds to a rule's solves and
// topdown.pass once per global pass; its joins run on the engine's
// executor without hitting engine.probe.
//
// Injected errors match errors.Is(err, ErrInjectedFault) and are
// retryable for the Auto degradation chain; injected cancellations
// surface as CanceledError whose cause is ErrInjectedFault. A malformed
// spec fails the evaluation before any work is done. This is the chaos
// harness's entry point — production evaluations simply omit the option
// and pay nothing.
func WithFaultInjection(seed int64, spec string) Option {
	return func(c *evalConfig) { c.faultSeed, c.faultSpec = seed, spec }
}

// WithMaxDuration bounds the wall-clock time of the evaluation: the
// context is wrapped with a deadline d from the start of Eval, and the
// evaluation returns a CanceledError wrapping context.DeadlineExceeded
// once it expires. Composes with EvalContext — whichever deadline is
// earlier wins.
func WithMaxDuration(d time.Duration) Option {
	return func(c *evalConfig) { c.maxDuration = d }
}

// Eval evaluates query ("?- goal(args).") against p and db with the given
// strategy. Every strategy returns the same answer rows; explicit
// strategies return an error when they are not applicable to the program
// (Auto always picks an applicable one).
func Eval(p *Program, db *Database, query string, strategy Strategy, opts ...Option) (*Result, error) {
	return EvalContext(context.Background(), p, db, query, strategy, opts...)
}

// EvalContext is Eval governed by a context: every strategy polls ctx
// cooperatively (per fixpoint iteration and every few thousand
// inferences or probes) and returns an error wrapping context.Cause(ctx)
// shortly after it is done — cancel it, give it a deadline, or wire it
// to a signal to interrupt a divergent query. A context that can never
// be canceled adds no per-inference cost.
//
// Evaluation errors come in three distinguishable families:
// errors.Is(err, ErrResourceLimit) for budget trips (see
// ResourceLimitError), errors.Is(err, context.Canceled) /
// errors.Is(err, context.DeadlineExceeded) for interruptions, and
// *InternalError for panics recovered at this boundary.
//
// Repeated evaluations of the same query text on the same Program hit
// the program's plan cache and skip compilation (adornment, analysis,
// rewrite); see Prepare for the explicit prepared-query API.
func EvalContext(ctx context.Context, p *Program, db *Database, query string, strategy Strategy, opts ...Option) (*Result, error) {
	cfg := evalConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	esp := cfg.exec.Tracer.Begin("eval", "eval")
	defer esp.End()
	psp := cfg.exec.Tracer.Begin("eval", "parse")
	q, err := parser.ParseQuery(p.bank, query)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("lincount: parsing query: %w", err)
	}
	return evalCore(ctx, p, db, q, strategy, cfg)
}

// evalCore is everything after query parsing: plan (for Auto), compile
// through the plan cache, execute, record. It is shared between
// EvalContext and PreparedQuery.EvalContext (which parsed at Prepare
// time).
func evalCore(ctx context.Context, p *Program, db *Database, q ast.Query, strategy Strategy, cfg evalConfig) (*Result, error) {
	if db != nil && db.owner != p {
		return nil, ErrWrongDatabase
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.faultSpec != "" {
		inj, err := faultinject.ParseSpec(cfg.faultSeed, cfg.faultSpec)
		if err != nil {
			return nil, fmt.Errorf("lincount: %w", err)
		}
		cfg.exec.Inject = inj
	}
	if cfg.maxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.maxDuration)
		defer cancel()
	}
	if cfg.exec.Inject.WantsCancel() {
		// Injected cancellation storms flow through the ordinary
		// cooperative-cancellation machinery, with ErrInjectedFault as
		// the context cause so callers can tell them from real Ctrl-Cs.
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		cfg.exec.Inject.BindCancel(func() { cancel(faultinject.ErrInjected) })
	}
	var sink Stats
	cfg.exec.StatsOut = &sink
	// A context that is already done returns promptly, before any
	// compilation or evaluation work.
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Component: "lincount", Cause: context.Cause(ctx)}
	}
	dbi := db.data()
	cfg.queryText = ast.FormatQuery(p.bank, q)
	cfg.shared = p.sharedFor(cfg.queryText, q, cfg.noCache)
	stats := p.statsFunc(dbi)
	// The planner's cardinality estimates pre-size the engine's head
	// relations and join indexes.
	cfg.exec.Sizes = engine.SizeHint(stats)

	start := time.Now()
	resolved := strategy
	var choices []plan.Choice
	if strategy == Auto {
		plsp := cfg.exec.Tracer.Begin("eval", "plan")
		choices = plan.Rank(cfg.shared, stats)
		plsp.End(obsv.A("candidates", int64(len(choices))))
		resolved = choices[0].Strategy
		obsv.MPlannerChoices.Add(resolved.String(), 1)
	}

	var res *Result
	var err error
	if strategy == Auto {
		res, err = evalAuto(ctx, p, dbi, choices, cfg)
	} else {
		res, _, err = evalResolved(ctx, p, dbi, strategy, cfg)
	}
	dur := time.Since(start)
	if err != nil {
		recordEval(resolved, sink, 0, cfg.exec.Inject.Fired(), dur, err)
		return nil, err
	}
	res.Resolved = resolved
	res.Stats.Duration = dur
	recordEval(res.Strategy, res.Stats, len(res.Degraded), cfg.exec.Inject.Fired(), dur, nil)
	if strategy == Auto {
		res.Planner = plannerChoices(choices)
		for _, c := range res.Planner {
			if c.Strategy == res.Strategy {
				obsv.MPlannerQError.Observe(c.QError(res.Stats.Inferences))
			}
		}
	}
	return res, nil
}

// sharedFor returns the shared compilation state for a query, reusing
// the cached one so every strategy (and every Auto fallback attempt)
// adorns and analyzes at most once per query text.
func (p *Program) sharedFor(qtext string, q ast.Query, noCache bool) *plan.Shared {
	if noCache || p.plans == nil {
		return plan.NewShared(p.program, q)
	}
	return p.plans.SharedFor(qtext, func() *plan.Shared {
		return plan.NewShared(p.program, q)
	})
}

// statsFunc supplies the planner's per-predicate cardinalities: base
// facts in the database plus fact rules embedded in the program source
// (the REPL's facts live there).
func (p *Program) statsFunc(dbi *database.Database) plan.StatsFunc {
	facts := p.programFactCounts()
	return func(pred symtab.Sym) int64 {
		n := facts[pred]
		if dbi != nil {
			if rel := dbi.Relation(pred); rel != nil {
				n += int64(rel.Len())
			}
		}
		return n
	}
}

// planFor returns the compiled plan for a strategy, consulting the
// program's plan cache unless the evaluation opted out. It reports
// whether the plan was a cache hit and how long compilation took (zero
// on a hit). Compile failures are returned without being cached.
func (p *Program) planFor(s Strategy, cfg evalConfig) (cq *plan.CompiledQuery, hit bool, compileTime time.Duration, err error) {
	useCache := !cfg.noCache && p.plans != nil
	key := plan.Key{Query: cfg.queryText, Strategy: s}
	if useCache {
		if cq, ok := p.plans.Get(key); ok {
			obsv.MPlanCacheHits.Add(1)
			sp := cfg.exec.Tracer.Begin("eval", "compile:"+s.String())
			sp.End(obsv.A("cache_hit", 1))
			return cq, true, 0, nil
		}
		obsv.MPlanCacheMisses.Add(1)
	}
	csp := cfg.exec.Tracer.Begin("eval", "compile:"+s.String())
	start := time.Now()
	cq, err = plan.Compile(cfg.shared, s, cfg.exec.Tracer)
	compileTime = time.Since(start)
	csp.End(obsv.A("cache_hit", 0))
	if err != nil {
		return nil, false, compileTime, err
	}
	obsv.MCompileDuration.Observe(compileTime.Seconds())
	if useCache {
		p.plans.Put(key, cq)
	}
	return cq, false, compileTime, nil
}

// recordEval folds one finished evaluation — successful or not — into
// the process-wide metrics registry (served at /metrics when a CLI runs
// with -obs). The fold is a fixed handful of atomic adds; it is recorded
// unconditionally.
func recordEval(s Strategy, st Stats, degradations int, faultHits uint64, dur time.Duration, err error) {
	obsv.RecordEval(obsv.EvalSample{
		Strategy:      s.String(),
		Inferences:    st.Inferences,
		Probes:        st.Probes,
		DerivedFacts:  st.DerivedFacts,
		AnswerTuples:  int64(st.AnswerTuples),
		ArenaValues:   st.ArenaValues,
		CountingNodes: int64(st.CountingNodes),
		Degradations:  int64(degradations),
		FaultHits:     int64(faultHits),
		Duration:      dur,
		ErrClass:      errClass(err),
	})
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// errClass maps an evaluation error to its metrics label: "" (success),
// "limit", "canceled", "internal", or "other".
func errClass(err error) string {
	if err == nil {
		return ""
	}
	var ce *CanceledError
	var ie *InternalError
	switch {
	case errors.Is(err, ErrResourceLimit):
		return "limit"
	case errors.As(err, &ce), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.As(err, &ie):
		return "internal"
	default:
		return "other"
	}
}

// evalAuto runs the Auto degradation chain — the planner's ranking, best
// estimate first — until one strategy succeeds or the chain is
// exhausted. A failed attempt retries with the next strategy only on a
// retryable error (a resource-limit trip, an injected fault, or a
// recovered internal panic) or when the strategy turned out not to
// cover the program; non-retryable errors (cancellation, deadline,
// semantic errors) fail fast. The shared derived-fact budget is charged
// across attempts — a fallback only gets what the failed attempts
// measurably left — and every attempt compiles through the shared
// analysis and the plan cache, so retries never re-adorn. Failed
// attempts are recorded in Result.Degraded with compile and execute
// time split out.
func evalAuto(ctx context.Context, p *Program, dbi *database.Database, chain []plan.Choice, cfg evalConfig) (*Result, error) {
	var attempts []AttemptInfo
	remaining := int64(cfg.exec.MaxFacts) // shared budget; 0 = per-attempt defaults
	for i, c := range chain {
		s := c.Strategy
		acfg := cfg
		if cfg.exec.MaxFacts > 0 {
			acfg.exec.MaxFacts = int(remaining)
		}
		// Each attempt gets its own stats sink so a failed attempt's
		// partial work counters survive into AttemptInfo.Stats.
		var attemptStats Stats
		acfg.exec.StatsOut = &attemptStats
		asp := cfg.exec.Tracer.Begin("eval", "attempt:"+s.String())
		attemptStart := time.Now()
		res, timing, err := evalResolved(ctx, p, dbi, s, acfg)
		asp.End(obsv.A("failed", boolArg(err != nil)))
		*cfg.exec.StatsOut = attemptStats
		if err == nil {
			res.Degraded = attempts
			return res, nil
		}
		if i == len(chain)-1 {
			return nil, err
		}
		if !retryableError(err) && !notApplicableError(err) {
			return nil, err
		}
		if ctx.Err() != nil {
			// The evaluation as a whole is canceled or out of time;
			// retrying would only fail the same way.
			return nil, err
		}
		attempts = append(attempts, AttemptInfo{
			Strategy:     s,
			Err:          err.Error(),
			Duration:     time.Since(attemptStart),
			Compile:      timing.compile,
			Execute:      timing.execute,
			PlanCacheHit: timing.cacheHit,
			Stats:        attemptStats,
		})
		if cfg.exec.MaxFacts > 0 {
			// Charge what the failed attempt measurably consumed (its
			// derived-fact or counting-tuple usage); attempts that failed
			// before tripping a counted budget charge nothing.
			var rle *ResourceLimitError
			if errors.As(err, &rle) && (rle.Kind == LimitFacts || rle.Kind == LimitTuples) {
				remaining -= rle.Used
				if remaining <= 0 {
					return nil, err
				}
			}
		}
	}
	// Unreachable: the loop returns on the last chain element.
	return nil, errors.New("lincount: empty fallback chain")
}

// retryableError reports whether a failed attempt may be retried with
// another strategy: resource-limit trips (the strategy's work shape blew
// a budget another strategy may stay within), injected faults, and
// recovered internal panics. Cancellations and semantic errors are not
// retryable.
func retryableError(err error) bool {
	var ce *CanceledError
	if errors.As(err, &ce) {
		return false
	}
	var ie *InternalError
	return errors.Is(err, ErrResourceLimit) ||
		errors.Is(err, faultinject.ErrInjected) ||
		errors.As(err, &ie)
}

// notApplicableError reports errors meaning "this strategy does not
// cover the program" — within the fallback chain these skip to the next
// strategy rather than failing the evaluation.
func notApplicableError(err error) bool {
	return errors.Is(err, counting.ErrNotLinear) ||
		errors.Is(err, counting.ErrNotApplicable) ||
		errors.Is(err, counting.ErrNoBoundArgs) ||
		errors.Is(err, magic.ErrNoBoundArgs) ||
		errors.Is(err, topdown.ErrUnsupported)
}

// FallbackChain reports the strategy order Auto tries for the query: the
// first element is the planner's pick, the rest are the
// graceful-degradation fallbacks in order. The order does not depend on
// the data (PlannerChoices adds the cost estimates under a database's
// cardinalities). Explicit strategies never degrade.
func FallbackChain(p *Program, query string) ([]Strategy, error) {
	choices, err := PlannerChoices(p, nil, query)
	if err != nil {
		return nil, err
	}
	out := make([]Strategy, len(choices))
	for i, c := range choices {
		out[i] = c.Strategy
	}
	return out, nil
}

// PlannerChoice is one entry of the Auto planner's ranking: a candidate
// strategy whose applicability gates passed, its estimated cost in
// visited-fact units (comparable within one ranking; lower is better),
// and the reasoning behind the estimate.
type PlannerChoice struct {
	Strategy Strategy
	Cost     float64
	Reason   string
}

// QError is the planner's estimation error for a choice that ran and
// made observed inferences: the factor, at least 1, by which the estimate
// and the observation differ in either direction.
func (c PlannerChoice) QError(observed int64) float64 {
	est, obs := max(c.Cost, 1), max(float64(observed), 1)
	return max(est/obs, obs/est)
}

func plannerChoices(ranked []plan.Choice) []PlannerChoice {
	out := make([]PlannerChoice, len(ranked))
	for i, c := range ranked {
		out[i] = PlannerChoice{Strategy: c.Strategy, Cost: c.Cost, Reason: c.Reason}
	}
	return out
}

// PlannerChoices returns the candidate strategies for the query the way
// Auto ranks them — the structural chain of the shared linearity analysis
// — with cost estimates from the per-relation cardinalities of db (and of
// facts embedded in the program; with a nil db only those count). The
// first choice is what Auto resolves to; the rest is its degradation
// chain.
func PlannerChoices(p *Program, db *Database, query string) ([]PlannerChoice, error) {
	if db != nil && db.owner != p {
		return nil, ErrWrongDatabase
	}
	q, err := parser.ParseQuery(p.bank, query)
	if err != nil {
		return nil, fmt.Errorf("lincount: parsing query: %w", err)
	}
	sh := p.sharedFor(ast.FormatQuery(p.bank, q), q, false)
	return plannerChoices(plan.Rank(sh, p.statsFunc(db.data()))), nil
}

// attemptTiming splits one attempt's wall time into its compile and
// execute shares.
type attemptTiming struct {
	compile  time.Duration
	execute  time.Duration
	cacheHit bool
}

// evalResolved compiles (through the plan cache) and executes one
// concrete strategy, with panic containment: a panic in a compilation
// pass or an evaluator is recovered here and returned as
// *InternalError, so one bad query cannot crash a process embedding the
// library.
func evalResolved(ctx context.Context, p *Program, dbi *database.Database, resolved Strategy, cfg evalConfig) (res *Result, timing attemptTiming, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &InternalError{Strategy: resolved, Value: r, Stack: string(debug.Stack())}
		}
	}()
	cq, hit, compileTime, err := p.planFor(resolved, cfg)
	timing.compile, timing.cacheHit = compileTime, hit
	if err != nil {
		return nil, timing, err
	}
	execStart := time.Now()
	out, err := cq.Execute(ctx, dbi, cfg.exec)
	timing.execute = time.Since(execStart)
	if err != nil {
		return nil, timing, err
	}
	return &Result{
		Answers:        finishRows(p, out.Answers),
		Strategy:       out.Strategy,
		Rewritten:      out.Rewritten,
		RewrittenQuery: out.RewrittenQuery,
		Stats:          out.Stats,
		CompileTime:    timing.compile,
		PlanCacheHit:   hit,
		RuleProfile:    out.Rules,
	}, timing, nil
}

// finishRows formats answer tuples, sorts them column by column as text
// and drops duplicates: the one order every answer surface returns (Eval,
// Materialization.Answers, Explain). The evaluators return their tuples in
// no particular order.
func finishRows(p *Program, tuples []database.Tuple) [][]string {
	rows := make([][]string, len(tuples))
	for i, t := range tuples {
		rows[i] = p.formatTuple(t)
	}
	slices.SortFunc(rows, slices.Compare)
	return slices.CompactFunc(rows, slices.Equal)
}
