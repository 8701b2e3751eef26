package plan

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lincount/internal/adorn"
	"lincount/internal/ast"
	"lincount/internal/counting"
	"lincount/internal/magic"
	"lincount/internal/obsv"
)

// Shared holds the strategy-independent compilation state of one
// (program, query) pair: the adornment and the linearity analysis. Both
// are computed at most once (sync.Once) no matter how many candidate
// strategies compile against them — the Auto fallback chain and the
// planner all rank and rewrite off the same facts. A Shared is safe for
// concurrent use.
type Shared struct {
	prog  *ast.Program
	query ast.Query

	adornOnce sync.Once
	adorned   *adorn.Adorned
	adornErr  error

	anOnce sync.Once
	an     *counting.Analysis
	anErr  error

	derivedOnce sync.Once
	derived     bool

	// stats is the most recently published cardinality estimator for
	// this (program, query) pair — set by the facade each evaluation
	// (the database can change between evaluations) and read by the
	// engine to pre-size its relations and indexes. Atomic because a
	// Shared is cached and used concurrently.
	stats atomic.Pointer[StatsFunc]
}

// SetStats publishes the per-predicate cardinality estimator for
// subsequent compilations and evaluations against this Shared.
func (s *Shared) SetStats(fn StatsFunc) {
	if fn != nil {
		s.stats.Store(&fn)
	}
}

// Stats returns the last published cardinality estimator, or nil if none
// has been set.
func (s *Shared) Stats() StatsFunc {
	if p := s.stats.Load(); p != nil {
		return *p
	}
	return nil
}

// NewShared returns the shared compilation state for evaluating q
// against prog.
func NewShared(prog *ast.Program, q ast.Query) *Shared {
	return &Shared{prog: prog, query: q}
}

// Program returns the original (unrewritten) program.
func (s *Shared) Program() *ast.Program { return s.prog }

// Query returns the parsed query.
func (s *Shared) Query() ast.Query { return s.query }

// GoalDerived reports whether any rule defines the goal predicate.
func (s *Shared) GoalDerived() bool {
	s.derivedOnce.Do(func() {
		for _, r := range s.prog.Rules {
			if r.Head.Pred == s.query.Goal.Pred {
				s.derived = true
				return
			}
		}
	})
	return s.derived
}

// Adorned returns the adorned program, computing it on first call.
func (s *Shared) Adorned() (*adorn.Adorned, error) {
	s.adornOnce.Do(func() {
		s.adorned, s.adornErr = adorn.Adorn(s.prog, s.query)
	})
	return s.adorned, s.adornErr
}

// Analysis returns the counting analysis of the adorned program,
// computing it (and the adornment) on first call. Adornment errors
// surface here too.
func (s *Shared) Analysis() (*counting.Analysis, error) {
	s.anOnce.Do(func() {
		a, err := s.Adorned()
		if err != nil {
			s.anErr = err
			return
		}
		s.an, s.anErr = counting.Analyze(a)
	})
	return s.an, s.anErr
}

// PassInfo records one executed compilation pass.
type PassInfo struct {
	// Name is the pass name as it appears in traces ("adorn",
	// "rewrite:magic", "reduce", "finalize", …).
	Name string
	// Duration is the wall-clock time the pass took in this compile (a
	// pass whose result was already shared reports only the lookup).
	Duration time.Duration
}

// CompiledQuery is the compiled form of one (program, query, strategy)
// triple: everything evaluation needs that does not depend on the data.
// CompiledQuery values are immutable after Compile and may be cached and
// executed concurrently.
type CompiledQuery struct {
	// Strategy is the concrete strategy this plan was compiled for.
	Strategy Strategy
	// Query is the parsed original query.
	Query ast.Query
	// Adorned is the shared adornment (nil for Naive/SemiNaive, which do
	// not adorn).
	Adorned *adorn.Adorned
	// Analysis is the shared linearity analysis (counting strategies).
	Analysis *counting.Analysis
	// Extensional is true when the adorned program has no rules — a
	// purely extensional goal that every rewriting strategy delegates to
	// semi-naive evaluation over the original program.
	Extensional bool
	// Program is the program the engine evaluates (the rewritten program
	// for rewriting strategies, the original otherwise; nil for
	// CountingRuntime and QSQ, which do not run the bottom-up engine).
	Program *ast.Program
	// EntryQuery is the goal to read answers from after evaluating
	// Program (the rewritten goal for rewriting strategies).
	EntryQuery ast.Query
	// Magic carries the magic-set rewrite artifacts (Magic/MagicSup).
	Magic *magic.Rewritten
	// Counting carries the counting rewrite artifacts
	// (CountingClassic/Counting/CountingReduced).
	Counting *counting.Rewritten
	// RewrittenText and RewrittenQueryText are the rewritten program and
	// goal rendered as Datalog source, formatted once at compile time.
	RewrittenText      string
	RewrittenQueryText string
	// Passes lists the executed passes in order with their durations.
	Passes []PassInfo
	// CompileTime is the total wall-clock time of the compile.
	CompileTime time.Duration
}

// A pass is one step of the compilation pipeline; it reads the shared
// state and fills in the CompiledQuery. Returning done=true ends the
// pipeline early (the extensional-goal short circuit).
type pass struct {
	name string
	run  func(cq *CompiledQuery, sh *Shared) (done bool, err error)
}

// passAdorn resolves the shared adornment and detects purely extensional
// goals.
var passAdorn = pass{name: "adorn", run: func(cq *CompiledQuery, sh *Shared) (bool, error) {
	a, err := sh.Adorned()
	if err != nil {
		return false, err
	}
	cq.Adorned = a
	if len(a.Program.Rules) == 0 {
		// Purely extensional goal: evaluate the original program
		// semi-naively, whatever the strategy asked for.
		cq.Extensional = true
		cq.Program = sh.prog
		cq.EntryQuery = cq.Query
		return true, nil
	}
	return false, nil
}}

// passAnalyze resolves the shared linearity analysis.
var passAnalyze = pass{name: "analyze", run: func(cq *CompiledQuery, sh *Shared) (bool, error) {
	an, err := sh.Analysis()
	if err != nil {
		return false, err
	}
	cq.Analysis = an
	return false, nil
}}

func rewritePass(name string, fn func(cq *CompiledQuery, sh *Shared) error) pass {
	return pass{name: name, run: func(cq *CompiledQuery, sh *Shared) (bool, error) {
		return false, fn(cq, sh)
	}}
}

var (
	passMagic = rewritePass("rewrite:magic", func(cq *CompiledQuery, sh *Shared) error {
		rw, err := magic.Rewrite(cq.Adorned)
		if err != nil {
			return err
		}
		cq.Magic = rw
		return nil
	})
	passMagicSup = rewritePass("rewrite:magic-sup", func(cq *CompiledQuery, sh *Shared) error {
		rw, err := magic.RewriteSupplementary(cq.Adorned)
		if err != nil {
			return err
		}
		cq.Magic = rw
		return nil
	})
	passCountingClassic = rewritePass("rewrite:counting-classic", func(cq *CompiledQuery, sh *Shared) error {
		rw, err := counting.RewriteClassicFromAnalysis(cq.Analysis)
		if err != nil {
			return err
		}
		cq.Counting = rw
		return nil
	})
	passCounting = rewritePass("rewrite:counting", func(cq *CompiledQuery, sh *Shared) error {
		rw, err := counting.RewriteFromAnalysis(cq.Analysis)
		if err != nil {
			return err
		}
		cq.Counting = rw
		return nil
	})
	// passCountingForReduce is passCounting under the name the reduced
	// strategy traces ("rewrite:counting-reduced"); the reduction itself
	// is the separate "reduce" pass that follows.
	passCountingForReduce = rewritePass("rewrite:counting-reduced", passCounting.runErr())
	passReduce            = rewritePass("reduce", func(cq *CompiledQuery, sh *Shared) error {
		cq.Counting = counting.Reduce(cq.Counting)
		return nil
	})
)

// runErr adapts a pass back to its error-only body so another pass can
// reuse it under a different trace name.
func (p pass) runErr() func(cq *CompiledQuery, sh *Shared) error {
	return func(cq *CompiledQuery, sh *Shared) error {
		_, err := p.run(cq, sh)
		return err
	}
}

// passFinalize fixes the execution entry point and renders the rewritten
// text once, so cached plans never re-format.
var passFinalize = pass{name: "finalize", run: func(cq *CompiledQuery, sh *Shared) (bool, error) {
	bank := sh.prog.Bank
	switch {
	case cq.Magic != nil:
		cq.Program = cq.Magic.Program
		cq.EntryQuery = cq.Magic.Query
		cq.RewrittenText = cq.Magic.Program.Format()
		cq.RewrittenQueryText = ast.FormatQuery(bank, cq.Magic.Query)
	case cq.Counting != nil:
		cq.Program = cq.Counting.Program
		cq.EntryQuery = cq.Counting.Query
		cq.RewrittenText = cq.Counting.Program.Format()
		cq.RewrittenQueryText = ast.FormatQuery(bank, cq.Counting.Query)
	case cq.Strategy == CountingRuntime:
		cq.RewrittenText = counting.RewriteCyclicText(cq.Analysis)
		cq.RewrittenQueryText = strings.TrimSpace(ast.FormatQuery(bank, cq.Adorned.Query))
	default:
		// Naive, SemiNaive, QSQ: evaluate over the original program and
		// read answers at the original goal.
		cq.Program = sh.prog
		cq.EntryQuery = cq.Query
	}
	return false, nil
}}

// passesFor returns the pipeline for a strategy. Every pipeline ends in
// passFinalize; rewriting pipelines start with the shared adornment.
func passesFor(s Strategy) []pass {
	switch s {
	case Naive, SemiNaive:
		return []pass{passFinalize}
	case Magic:
		return []pass{passAdorn, passMagic, passFinalize}
	case MagicSup:
		return []pass{passAdorn, passMagicSup, passFinalize}
	case CountingClassic:
		return []pass{passAdorn, passAnalyze, passCountingClassic, passFinalize}
	case Counting:
		return []pass{passAdorn, passAnalyze, passCounting, passFinalize}
	case CountingReduced:
		return []pass{passAdorn, passAnalyze, passCountingForReduce, passReduce, passFinalize}
	case CountingRuntime:
		return []pass{passAdorn, passAnalyze, passFinalize}
	case QSQ:
		return []pass{passAdorn, passFinalize}
	default:
		return nil
	}
}

// Compile runs the pass pipeline for the strategy over the shared state
// and returns the immutable CompiledQuery. Each pass is traced as a span
// in the "compile" category under its pass name. Compile never caches —
// the cache sits in front of it (see Cache).
func Compile(sh *Shared, s Strategy, tr *obsv.Tracer) (*CompiledQuery, error) {
	passes := passesFor(s)
	if passes == nil {
		return nil, &UnknownStrategyError{Strategy: s}
	}
	start := time.Now()
	cq := &CompiledQuery{Strategy: s, Query: sh.query}
	for _, p := range passes {
		sp := tr.Begin("compile", p.name)
		pstart := time.Now()
		done, err := p.run(cq, sh)
		sp.End()
		cq.Passes = append(cq.Passes, PassInfo{Name: p.name, Duration: time.Since(pstart)})
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	cq.CompileTime = time.Since(start)
	return cq, nil
}

// UnknownStrategyError is returned by Compile for a strategy with no
// pipeline (Auto itself, or an out-of-range value).
type UnknownStrategyError struct{ Strategy Strategy }

func (e *UnknownStrategyError) Error() string {
	return "lincount: unknown strategy " + e.Strategy.String()
}
