package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/faultinject"
	"lincount/internal/limits"
	"lincount/internal/obsv"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Options configures an evaluation.
type Options struct {
	// Naive selects the naive fixpoint (recompute everything each
	// iteration) instead of semi-naive. Used as a baseline.
	Naive bool
	// MaxIterations bounds fixpoint iterations per recursive component;
	// 0 means DefaultMaxIterations.
	MaxIterations int
	// MaxDerivedFacts bounds the total number of derived tuples;
	// 0 means DefaultMaxDerivedFacts.
	MaxDerivedFacts int
	// Inject, when non-nil, is consulted at the engine's hook sites
	// (relation inserts, index probes, fixpoint iterations) and may
	// surface injected errors, latency, or cancellations. Nil costs one
	// pointer comparison per site.
	Inject *faultinject.Injector
	// Tracer, when non-nil, records structured spans: one per component,
	// one per fixpoint iteration, and one per rule run, with integer
	// arguments for the delta and cumulative fact counts. It also enables
	// per-rule profiling (Result.Rules). Nil costs one pointer comparison
	// per hook site.
	Tracer *obsv.Tracer
	// Profile enables per-rule profiling (Result.Rules) without a
	// tracer: the query server's slow-query log wants rule attribution
	// for requests that never asked for a full trace. A non-nil Tracer
	// implies Profile; with both off the rule loop stays untouched.
	Profile bool
	// FactProgress, when non-nil, receives a live mirror of the
	// evaluation's derived-fact count (one atomic add per derived
	// tuple) — the query server's active-query registry reads it to
	// report facts-so-far for in-flight requests. Nil costs one branch
	// per derived fact.
	FactProgress *atomic.Int64
	// StatsOut, when non-nil, receives the evaluator's Stats even when
	// evaluation fails partway (budget trip, injected fault,
	// cancellation) — the partial work counters a degraded attempt would
	// otherwise discard. Only the fields the fixpoint itself counts are
	// set.
	StatsOut *Stats
	// Sizes, when non-nil, supplies per-predicate cardinality estimates
	// (the planner's stats, threaded through plan.Shared by the facade).
	// They pre-size derived relations, join hash indexes and the batched
	// pipeline's emission buffers, and participate in join ordering the
	// same way relation lengths do. Estimates are hints: a wrong one
	// costs memory or a rehash, never correctness.
	Sizes SizeHint
}

// SizeHint estimates a predicate's cardinality; see Options.Sizes.
type SizeHint func(symtab.Sym) int64

// Default budgets: generous enough for every experiment in the repository,
// small enough that an unsafe program fails in well under a second.
const (
	DefaultMaxIterations   = 1_000_000
	DefaultMaxDerivedFacts = 50_000_000
)

// Stats counts the work of one evaluation. It is the one work-counter type
// of every strategy: the fixpoints here, the counting runtime and QSQ all
// report in it. Fields that do not apply to a strategy are zero.
type Stats struct {
	// Iterations counts fixpoint rounds (QSQ: global passes).
	Iterations int
	// Inferences counts successful rule instantiations including
	// rederivations — the classic deductive-database cost metric (the
	// counting runtime's arcs and moves).
	Inferences int64
	// DerivedFacts counts distinct derived tuples.
	DerivedFacts int64
	// Probes counts index lookups.
	Probes int64
	// CountingNodes is the counting-set size (counting strategies; for
	// engine-evaluated counting programs it is the counting relation's
	// cardinality, for Magic and QSQ the magic set's).
	CountingNodes int
	// AnswerTuples counts distinct answer-predicate tuples.
	AnswerTuples int
	// ArenaValues is the number of term values resident in the
	// evaluation's columnar arenas when it completes: derived relations
	// for engine strategies, input/answer relations for QSQ, and the
	// node and tuple arenas for the counting runtime — the storage
	// footprint in values, not bytes.
	ArenaValues int64
	// Duration is the wall-clock time of the evaluation, including
	// rewriting (set by the caller that times it).
	Duration time.Duration
}

// RuleStat is one rule's profiling record, collected only when a Tracer
// is attached or Options.Profile is set (profiling costs clock reads
// per rule run, so unprofiled evaluations skip it entirely). For
// rewriting strategies the rules are those of the rewritten program.
type RuleStat struct {
	// Rule is the rule's source text.
	Rule string
	// Runs counts evaluations of the rule (one per occurrence per
	// fixpoint iteration in semi-naive mode).
	Runs int
	// Inferences and DerivedFacts are the rule's share of the Stats
	// counters of the same names.
	Inferences   int64
	DerivedFacts int64
	// Duration is the wall-clock time spent joining this rule's body.
	Duration time.Duration
}

// Result holds the derived relations of an evaluation.
type Result struct {
	bank *term.Bank
	// maintained marks relations that outlive the query (NewResult): an
	// index built to answer a goal is kept and pays off on the next one.
	maintained bool
	Derived    map[symtab.Sym]*database.Relation
	Stats      Stats
	// Rules holds per-rule profiles when Options.Tracer or
	// Options.Profile was set (nil otherwise), in component order.
	Rules []RuleStat
}

// Relation returns the derived relation for pred, or nil.
func (r *Result) Relation(pred symtab.Sym) *database.Relation { return r.Derived[pred] }

// Bank returns the term bank of the evaluated program.
func (r *Result) Bank() *term.Bank { return r.bank }

type evaluator struct {
	bank    *term.Bank
	db      *database.Database
	derived map[symtab.Sym]*database.Relation
	arity   map[symtab.Sym]int
	opts    Options
	stats   Stats

	maxIter  int
	maxFacts int64
	// check polls the evaluation context (nil when ungoverned).
	check *limits.Checker
	// inject is the fault-injection hook (nil when disabled).
	inject *faultinject.Injector
	// tracer records structured spans (nil when disabled).
	tracer *obsv.Tracer
	// prof accumulates per-rule profiles when profiling is on (a tracer
	// is attached or Options.Profile is set); profOrder preserves
	// first-run order for Result.Rules.
	prof      map[*compiledRule]*RuleStat
	profOrder []*RuleStat
	// progress, when non-nil, mirrors the derived-fact count for live
	// introspection (Options.FactProgress).
	progress *atomic.Int64

	// execs caches the per-evaluation pipeline state (binding frames,
	// probe keys, index handles) per rule variant: deltaOcc+1 indexes the
	// inner slice, 0 is the default order. Buffers belong to the
	// evaluator, not the compiled rule, so one compiled program is safe
	// to evaluate from many goroutines — each gets its own evaluator.
	execs map[*compiledRule][]*ruleExec
}

// Eval computes the minimal model of p over db. Facts embedded in the
// program (rules with empty bodies and ground heads) are treated as initial
// derived tuples. db is not modified.
func Eval(p *ast.Program, db *database.Database, opts Options) (*Result, error) {
	return EvalContext(context.Background(), p, db, opts)
}

// EvalContext is Eval under a context: the fixpoint loops poll ctx
// cooperatively (once per iteration and every few thousand inferences or
// probes) and return a cancellation error wrapping context.Cause(ctx)
// once it is done. An un-cancelable ctx adds no per-inference cost.
func EvalContext(ctx context.Context, p *ast.Program, db *database.Database, opts Options) (*Result, error) {
	ev := &evaluator{
		bank:     p.Bank,
		db:       db,
		derived:  make(map[symtab.Sym]*database.Relation),
		arity:    make(map[symtab.Sym]int),
		opts:     opts,
		maxIter:  opts.MaxIterations,
		check:    limits.NewChecker(ctx, "engine"),
		inject:   opts.Inject,
		tracer:   opts.Tracer,
		progress: opts.FactProgress,
	}
	if ev.tracer != nil || opts.Profile {
		ev.prof = make(map[*compiledRule]*RuleStat)
	}
	if opts.StatsOut != nil {
		// Fill even on the error paths: a failed attempt's partial work
		// counters are what Auto-degradation reporting needs.
		defer func() {
			ev.noteArenas()
			*opts.StatsOut = ev.stats
		}()
	}
	if ev.maxIter == 0 {
		ev.maxIter = DefaultMaxIterations
	}
	ev.maxFacts = int64(opts.MaxDerivedFacts)
	if ev.maxFacts == 0 {
		ev.maxFacts = DefaultMaxDerivedFacts
	}
	if db != nil && db.Bank() != p.Bank {
		return nil, errors.New("engine: program and database use different term banks")
	}
	if err := ev.check.Check(); err != nil {
		return nil, err
	}

	if err := ev.checkArities(p); err != nil {
		return nil, err
	}
	comps, err := Stratify(p)
	if err != nil {
		return nil, err
	}

	// Seed derived relations: program facts, plus db tuples for predicates
	// that are also rule heads (so reads see the union).
	for _, r := range p.Rules {
		rel, err := ev.derivedRel(r.Head.Pred, r.Head.Arity())
		if err != nil {
			return nil, err
		}
		if r.IsFact() {
			t := make(database.Tuple, len(r.Head.Args))
			for i, a := range r.Head.Args {
				t[i] = a.Value
			}
			if rel.Insert(t) {
				ev.countFact()
			}
		}
	}
	for pred, rel := range ev.derived {
		if ev.db == nil {
			break
		}
		if base := ev.db.Relation(pred); base != nil {
			if base.Arity() != rel.Arity() {
				return nil, fmt.Errorf("engine: predicate %s has arity %d in program but %d in database",
					ev.bank.Symbols().String(pred), rel.Arity(), base.Arity())
			}
			for id := database.RowID(0); int(id) < base.Len(); id++ {
				// Insert copies the base row view into the derived arena.
				if rel.Insert(database.Tuple(base.Row(id))) {
					ev.countFact()
				}
			}
		}
	}

	for _, comp := range comps {
		if err := ev.evalComponent(comp); err != nil {
			return nil, err
		}
	}
	ev.noteArenas()
	return &Result{bank: p.Bank, Derived: ev.derived, Stats: ev.stats, Rules: ev.ruleStats()}, nil
}

// ruleStats flattens the per-rule profiles in first-run order (nil when
// profiling was off).
func (ev *evaluator) ruleStats() []RuleStat {
	if len(ev.profOrder) == 0 {
		return nil
	}
	out := make([]RuleStat, len(ev.profOrder))
	for i, p := range ev.profOrder {
		out[i] = *p
	}
	return out
}

// profFor returns (creating if needed) the profile record for cr.
func (ev *evaluator) profFor(cr *compiledRule) *RuleStat {
	if p, ok := ev.prof[cr]; ok {
		return p
	}
	p := &RuleStat{Rule: ast.FormatRule(ev.bank, cr.src)}
	ev.prof[cr] = p
	ev.profOrder = append(ev.profOrder, p)
	return p
}

// noteArenas records the derived relations' resident arena size in Stats.
func (ev *evaluator) noteArenas() {
	ev.stats.ArenaValues = 0
	for _, rel := range ev.derived {
		ev.stats.ArenaValues += int64(rel.ArenaLen())
	}
}

// checkArities verifies consistent predicate arities across the program.
func (ev *evaluator) checkArities(p *ast.Program) error {
	syms := ev.bank.Symbols()
	note := func(pred symtab.Sym, n int) error {
		if ast.IsBuiltinName(syms.String(pred)) {
			return nil
		}
		if prev, ok := ev.arity[pred]; ok && prev != n {
			return fmt.Errorf("engine: predicate %s used with arities %d and %d",
				syms.String(pred), prev, n)
		}
		ev.arity[pred] = n
		return nil
	}
	for _, r := range p.Rules {
		if err := note(r.Head.Pred, r.Head.Arity()); err != nil {
			return err
		}
		for _, l := range r.Body {
			if err := note(l.Pred, l.Arity()); err != nil {
				return err
			}
		}
	}
	return nil
}

// sizeHintCap bounds how many rows a planner estimate may pre-allocate:
// hints are advisory and an absurd one must not balloon memory up front.
const sizeHintCap = 1 << 20

// sizeHint returns the clamped expected cardinality of pred from
// Options.Sizes, or 0 when no estimate is available.
func (ev *evaluator) sizeHint(pred symtab.Sym) int {
	if ev.opts.Sizes == nil {
		return 0
	}
	n := ev.opts.Sizes(pred)
	if n < 0 {
		return 0
	}
	if n > sizeHintCap {
		return sizeHintCap
	}
	return int(n)
}

func (ev *evaluator) derivedRel(pred symtab.Sym, arity int) (*database.Relation, error) {
	if rel, ok := ev.derived[pred]; ok {
		if rel.Arity() != arity {
			return nil, fmt.Errorf("engine: predicate %s used with arities %d and %d",
				ev.bank.Symbols().String(pred), rel.Arity(), arity)
		}
		return rel, nil
	}
	rel := database.NewRelationSized(arity, ev.sizeHint(pred))
	ev.derived[pred] = rel
	return rel, nil
}

// readRel returns the relation a body literal reads (derived if the
// predicate is a rule head, else base), or nil if empty.
func (ev *evaluator) readRel(pred symtab.Sym) *database.Relation {
	if rel, ok := ev.derived[pred]; ok {
		return rel
	}
	if ev.db != nil {
		return ev.db.Relation(pred)
	}
	return nil
}

func (ev *evaluator) predNames(preds []symtab.Sym) []string {
	syms := ev.bank.Symbols()
	out := make([]string, len(preds))
	for i, p := range preds {
		out[i] = syms.String(p)
	}
	return out
}

func (ev *evaluator) evalComponent(comp Component) (err error) {
	if ev.tracer != nil {
		sp := ev.tracer.Begin("engine", "component "+strings.Join(ev.predNames(comp.Preds), ","))
		iter0, facts0 := ev.stats.Iterations, ev.stats.DerivedFacts
		defer func() {
			sp.End(obsv.A("iterations", int64(ev.stats.Iterations-iter0)),
				obsv.A("facts", ev.stats.DerivedFacts-facts0))
		}()
	}
	inComp := make(map[symtab.Sym]bool, len(comp.Preds))
	for _, p := range comp.Preds {
		inComp[p] = true
	}
	var rules []*compiledRule
	for _, r := range comp.Rules {
		if r.IsFact() {
			continue // already seeded
		}
		cr, err := compileRule(ev.bank, r, inComp, func(pred symtab.Sym) int {
			n := 0
			if rel := ev.readRel(pred); rel != nil {
				n = rel.Len()
			}
			// Planner stats see through predicates whose relations have not
			// been derived yet; take whichever estimate is larger.
			if s := ev.sizeHint(pred); s > n {
				n = s
			}
			return n
		})
		if err != nil {
			return err
		}
		rules = append(rules, cr)
	}
	if len(rules) == 0 {
		return nil
	}

	if !comp.Recursive {
		// All body predicates are fully computed: one pass suffices.
		for _, cr := range rules {
			if err := ev.runRule(cr, -1, nil); err != nil {
				return err
			}
		}
		return nil
	}

	if ev.opts.Naive {
		return ev.naiveFixpoint(rules)
	}
	return ev.semiNaiveFixpoint(comp, rules)
}

// limitErr builds the structured budget error for this evaluator.
func (ev *evaluator) limitErr(kind string, used, limit int64) error {
	return &limits.ResourceLimitError{Kind: kind, Limit: limit, Used: used, Component: "engine"}
}

// naiveFixpoint re-evaluates every rule against the full relations until no
// new facts appear.
func (ev *evaluator) naiveFixpoint(rules []*compiledRule) error {
	for iter := 0; ; iter++ {
		if err := ev.check.Check(); err != nil {
			return err
		}
		if err := ev.inject.Hit(faultinject.SiteEngineIter); err != nil {
			return err
		}
		if iter >= ev.maxIter {
			return ev.limitErr(limits.KindIterations, int64(iter), int64(ev.maxIter))
		}
		ev.stats.Iterations++
		isp := ev.tracer.Begin("engine", "iteration")
		before := ev.stats.DerivedFacts
		for _, cr := range rules {
			if err := ev.runRule(cr, -1, nil); err != nil {
				isp.End(obsv.A("iter", int64(iter)))
				return err
			}
		}
		isp.End(obsv.A("iter", int64(iter)),
			obsv.A("delta", ev.stats.DerivedFacts-before),
			obsv.A("total", ev.stats.DerivedFacts))
		if ev.stats.DerivedFacts == before {
			return nil
		}
	}
}

// semiNaiveFixpoint runs the standard differential fixpoint: iteration 0
// evaluates every rule naively to seed the deltas; afterwards each
// recursive rule is evaluated once per recursive body occurrence with the
// delta substituted at that occurrence. A delta is a RowID watermark pair
// over the head relation — the rows appended during the previous
// iteration — so no delta tuples are materialized or inserted twice.
func (ev *evaluator) semiNaiveFixpoint(comp Component, rules []*compiledRule) error {
	lo := make(map[symtab.Sym]database.RowID, len(comp.Preds))
	delta := make(map[symtab.Sym]Delta, len(comp.Preds))
	for _, p := range comp.Preds {
		if rel, ok := ev.derived[p]; ok {
			lo[p] = database.RowID(rel.Len())
		}
	}
	// advance snapshots each head relation's growth since the last call
	// as the next iteration's delta windows and returns the total window
	// size.
	advance := func() int64 {
		var n int64
		for _, p := range comp.Preds {
			rel, ok := ev.derived[p]
			if !ok {
				continue
			}
			hi := database.RowID(rel.Len())
			delta[p] = Delta{Rel: rel, Lo: lo[p], Hi: hi}
			n += int64(hi - lo[p])
			lo[p] = hi
		}
		return n
	}

	// Iteration 0: naive pass over all rules.
	ev.stats.Iterations++
	isp := ev.tracer.Begin("engine", "iteration")
	for _, cr := range rules {
		if err := ev.runRule(cr, -1, nil); err != nil {
			isp.End(obsv.A("iter", 0))
			return err
		}
	}
	dn := advance()
	isp.End(obsv.A("iter", 0), obsv.A("delta", dn), obsv.A("total", ev.stats.DerivedFacts))

	for iter := 1; dn > 0; iter++ {
		if err := ev.check.Check(); err != nil {
			return err
		}
		if err := ev.inject.Hit(faultinject.SiteEngineIter); err != nil {
			return err
		}
		if iter >= ev.maxIter {
			return ev.limitErr(limits.KindIterations, int64(iter), int64(ev.maxIter))
		}
		ev.stats.Iterations++
		isp := ev.tracer.Begin("engine", "iteration")
		for _, cr := range rules {
			for occ := 0; occ < cr.nRecOccur(); occ++ {
				if err := ev.runRule(cr, occ, delta); err != nil {
					isp.End(obsv.A("iter", int64(iter)))
					return err
				}
			}
		}
		dn = advance()
		isp.End(obsv.A("iter", int64(iter)), obsv.A("delta", dn), obsv.A("total", ev.stats.DerivedFacts))
	}
	return nil
}

// countFact counts one new derived fact (a seed or a derivation) in Stats
// and, when armed, the live progress mirror.
func (ev *evaluator) countFact() {
	ev.stats.DerivedFacts++
	if ev.progress != nil {
		ev.progress.Add(1)
	}
}

// runRule evaluates one rule variant into the head relation. With
// profiling on (tracer attached or Options.Profile) each run is also
// timed into the rule's profile and, when a tracer is present, recorded
// as a span.
func (ev *evaluator) runRule(cr *compiledRule, deltaOcc int, delta map[symtab.Sym]Delta) error {
	if ev.prof == nil {
		return ev.runRuleFast(cr, deltaOcc, delta)
	}
	p := ev.profFor(cr)
	sp := ev.tracer.Begin("engine.rule", p.Rule)
	inf0, df0 := ev.stats.Inferences, ev.stats.DerivedFacts
	start := time.Now()
	err := ev.runRuleFast(cr, deltaOcc, delta)
	p.Duration += time.Since(start)
	p.Runs++
	p.Inferences += ev.stats.Inferences - inf0
	p.DerivedFacts += ev.stats.DerivedFacts - df0
	sp.End(obsv.A("inferences", ev.stats.Inferences-inf0),
		obsv.A("facts", ev.stats.DerivedFacts-df0))
	return err
}

// instantiate builds the ground value of a pattern; every variable in it
// must be bound (guaranteed by the compile-time ordering and safety check).
func (ev *evaluator) instantiate(p pat, frame []term.Value) term.Value {
	switch p.kind {
	case ast.Const:
		return p.val
	case ast.Var:
		v := frame[p.slot]
		if v == noValue {
			panic("engine: internal error: instantiating unbound variable")
		}
		return v
	default:
		args := make([]term.Value, len(p.args))
		for j, a := range p.args {
			args[j] = ev.instantiate(a, frame)
		}
		return ev.bank.Compound(p.functor, args...)
	}
}

// Answers matches a query goal against an evaluation result (falling back
// to the base database for purely extensional goals) and returns the
// matching tuples in no particular order. The goal runs as the rule
// "goal :- goal" through the executor; repeated variables and compound
// patterns filter the rows it reads. Relations of a maintained result
// (NewResult) are probed through an index on the goal's constants, which
// they keep for the next goal; a from-scratch result is read once, so its
// relation is the window of a delta occurrence — a scan, no index built.
// res must be non-nil; db may be nil.
func Answers(res *Result, db *database.Database, q ast.Query) []database.Tuple {
	ev := &evaluator{bank: res.bank, db: db, derived: res.Derived}
	occ := -1
	var inComponent map[symtab.Sym]bool
	var delta map[symtab.Sym]Delta
	if rel := ev.readRel(q.Goal.Pred); rel != nil && !res.maintained {
		occ = 0
		inComponent = map[symtab.Sym]bool{q.Goal.Pred: true}
		delta = map[symtab.Sym]Delta{q.Goal.Pred: {Rel: rel, Hi: database.RowID(rel.Len())}}
	}
	cr, err := compileRule(res.bank, ast.Rule{Head: q.Goal, Body: []ast.Literal{q.Goal}}, inComponent, nil)
	if err != nil {
		return nil
	}
	var out []database.Tuple
	re := newRuleExec(ev, cr, occ)
	re.begin(delta, JoinConfig{})
	// No checker, no injector and an infallible sink: the run cannot
	// fail. Clone is required: answers escape to the public API and must
	// not alias the reused head tuple.
	_ = re.run(func(t database.Tuple) error {
		out = append(out, t.Clone())
		return nil
	})
	return out
}
