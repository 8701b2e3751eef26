package lincount

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/lint"
	"lincount/internal/obsv"
	"lincount/internal/parser"
	"lincount/internal/plan"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Strategy selects how a query is evaluated. The canonical definition
// (and the per-strategy documentation) lives in internal/plan, next to
// the compilation pipeline; the type and every constant are re-exported
// here unchanged.
type Strategy = plan.Strategy

const (
	// Auto analyzes the program and picks by its class alone: the
	// reduced counting program for right-/left-/mixed-linear programs
	// whose list rewrite is safe, the counting runtime for other linear
	// programs (safe on cyclic data, and keyed by path shape where one
	// reaches a node), and magic sets otherwise.
	Auto = plan.Auto
	// Naive evaluates the program bottom-up without rewriting, recomputing
	// every rule each iteration. Baseline of baselines.
	Naive = plan.Naive
	// SemiNaive evaluates bottom-up with differential iteration.
	SemiNaive = plan.SemiNaive
	// Magic applies the magic-set rewriting, then evaluates semi-naively.
	Magic = plan.Magic
	// CountingClassic applies the classical counting method (integer
	// distance index). Applicable only to a single linear recursive rule
	// with disjoint left and right parts; unsafe on cyclic data.
	CountingClassic = plan.CountingClassic
	// Counting applies the extended counting rewriting (Algorithm 1 of
	// the paper) with path arguments. Applicable to every linear program;
	// unsafe on cyclic data (use CountingRuntime there).
	Counting = plan.Counting
	// CountingReduced applies Algorithm 1 followed by the reduction of
	// Algorithm 3.
	CountingReduced = plan.CountingReduced
	// CountingRuntime evaluates with the pointer-based counting runtime
	// (Algorithm 2), which is safe on cyclic databases.
	CountingRuntime = plan.CountingRuntime
	// MagicSup applies the supplementary magic-set rewriting (Beeri &
	// Ramakrishnan), which materializes rule prefixes so they are not
	// re-joined per derived body literal.
	MagicSup = plan.MagicSup
	// QSQ evaluates top-down with Query-SubQuery (Vieille), the
	// operational counterpart of magic sets. Negated derived literals
	// are not supported.
	QSQ = plan.QSQ
)

// ParseStrategy converts a name (as printed by String) to a Strategy.
func ParseStrategy(name string) (Strategy, error) { return plan.ParseStrategy(name) }

// Strategies lists all concrete strategies (excluding Auto), for sweeps.
func Strategies() []Strategy { return plan.Strategies() }

// planCacheCapacity bounds the compiled plans retained per Program. A
// service evaluates a small, hot set of query forms per program; 128
// plans comfortably covers that while bounding memory for adversarial
// query streams.
const planCacheCapacity = 128

// Program is a parsed Datalog program. Programs are immutable after
// parsing; the same Program may be evaluated against many databases,
// concurrently. Each Program owns a cache of compiled query plans
// (plans carry symbols interned in the program's term bank, so they are
// never shared across Programs; re-parsing a program therefore
// invalidates every plan by construction).
type Program struct {
	bank    *term.Bank
	program *ast.Program
	queries []ast.Query
	plans   *plan.Cache

	factCountsOnce sync.Once
	factCounts     map[symtab.Sym]int64
}

// ParseProgram parses Datalog source text. Facts embedded in the source
// stay part of the program; "?-" queries are collected and available via
// Queries.
func ParseProgram(src string) (*Program, error) {
	bank := term.NewBank(symtab.New())
	res, err := parser.Parse(bank, src)
	if err != nil {
		return nil, err
	}
	return &Program{
		bank:    bank,
		program: res.Program,
		queries: res.Queries,
		plans: plan.NewCache(planCacheCapacity, func(delta int) {
			obsv.MPlanCacheEntries.Add(int64(delta))
		}),
	}, nil
}

// programFactCounts returns the number of fact rules per head predicate —
// facts embedded in the program source, which the planner counts as base
// cardinality alongside the database's relations. Computed once; the
// program is immutable.
func (p *Program) programFactCounts() map[symtab.Sym]int64 {
	p.factCountsOnce.Do(func() {
		p.factCounts = make(map[symtab.Sym]int64)
		for _, r := range p.program.Rules {
			if len(r.Body) == 0 {
				p.factCounts[r.Head.Pred]++
			}
		}
	})
	return p.factCounts
}

// MustParseProgram is ParseProgram that panics on error, for tests and
// examples.
func MustParseProgram(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Queries returns the "?-" goals found in the program source, rendered as
// text suitable for Eval.
func (p *Program) Queries() []string {
	out := make([]string, len(p.queries))
	for i, q := range p.queries {
		out[i] = ast.FormatQuery(p.bank, q)
	}
	return out
}

// Text renders the program as Datalog source.
func (p *Program) Text() string { return p.program.Format() }

// Lint runs static diagnostics over the program: safety errors, style
// warnings (singleton variables, duplicates) and structural notes
// (recursive cliques and whether the counting methods apply). Each
// finding is returned as formatted text prefixed with its severity;
// hasErrors is true when any finding would fail evaluation.
func (p *Program) Lint() (findings []string, hasErrors bool) {
	for _, f := range lint.Check(p.program) {
		findings = append(findings, f.Format(p.program))
		if f.Severity == lint.Error {
			hasErrors = true
		}
	}
	return findings, hasErrors
}

// Database holds base facts for one Program (they share a term bank, so a
// Database can only be used with the Program that created it).
type Database struct {
	owner *Program
	db    *database.Database
}

// NewDatabase returns an empty fact database for p.
func NewDatabase(p *Program) *Database {
	return &Database{owner: p, db: database.New(p.bank)}
}

// LoadFacts parses fact text ("up(a,b). flat(b,c).") into the database.
func (d *Database) LoadFacts(src string) error { return d.db.LoadText(src) }

// Apply applies one ordered batch of write ops to the database, with
// exactly the effect of applying them one at a time — asserts through
// LoadFacts, retracts through RetractFacts — and the same per-op
// retract counts in ApplyInfo.RetractedPerOp. The batch is atomic: the
// first op sequential application would fail rejects the whole batch
// with a *WriteError carrying its index, and the database is left
// untouched. A fact retracted and re-asserted within one batch keeps its
// place (no net change) where sequential application would move it to
// the end of its relation.
func (d *Database) Apply(ops []WriteOp) (*ApplyInfo, error) {
	b, err := d.db.Simulate(ops, nil)
	if err != nil {
		return nil, err
	}
	if err := d.db.Commit(b); err != nil {
		return nil, err
	}
	return &ApplyInfo{RetractedPerOp: b.RetractedPerOp, NetInserted: b.Inserted, NetDeleted: b.Deleted}, nil
}

// Fork returns a copy-on-write fork of the database: the fork shares
// every relation with d until a write first touches it, so d is never
// mutated through the fork and may keep serving concurrent readers.
// This is the MVCC primitive behind the query server's epoch snapshots:
// a single writer forks the current snapshot, applies a batch of
// asserts/retracts to the fork, and publishes the fork atomically as the
// next epoch. Forks are meant for a linear single-writer chain — fork
// the tip, write, publish, repeat; writing to two forks of the same
// database concurrently is not supported.
func (d *Database) Fork() *Database {
	return &Database{owner: d.owner, db: d.db.Fork()}
}

// Retract removes one fact (same argument conventions as Assert),
// reporting whether it was present. Retraction rebuilds the predicate's
// relation without the tuple — O(relation size) — so batch retractions
// where possible.
func (d *Database) Retract(pred string, args ...any) (bool, error) {
	t := make(database.Tuple, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case string:
			t[i] = term.Symbol(d.owner.bank.Symbols().Intern(v))
		case int:
			t[i] = term.Int(int64(v))
		case int64:
			t[i] = term.Int(v)
		default:
			return false, fmt.Errorf("lincount: unsupported argument type %T", a)
		}
	}
	return d.db.Retract(d.owner.bank.Symbols().Intern(pred), t)
}

// RetractFacts parses fact text (same format as LoadFacts) and retracts
// each fact, returning how many were present and removed. Facts absent
// from the database are no-ops, not errors.
func (d *Database) RetractFacts(src string) (int, error) { return d.db.RetractText(src) }

// Assert adds one fact. Arguments may be string (symbol constants), int,
// int64, or pre-rendered Datalog terms via Raw.
func (d *Database) Assert(pred string, args ...any) error {
	t := make(database.Tuple, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case string:
			t[i] = term.Symbol(d.owner.bank.Symbols().Intern(v))
		case int:
			t[i] = term.Int(int64(v))
		case int64:
			t[i] = term.Int(v)
		default:
			return fmt.Errorf("lincount: unsupported argument type %T", a)
		}
	}
	_, err := d.db.Assert(d.owner.bank.Symbols().Intern(pred), t)
	return err
}

// FactCount reports the number of base facts.
func (d *Database) FactCount() int { return d.db.FactCount() }

// Save writes a binary snapshot of the database to w. Snapshots carry
// their term universe and can be loaded into any database.
func (d *Database) Save(w io.Writer) error { return database.Save(w, d.db) }

// LoadSnapshot merges a binary snapshot (written by Save) into the
// database.
func (d *Database) LoadSnapshot(r io.Reader) error { return database.Load(r, d.db) }

// Text renders the database as fact text.
func (d *Database) Text() string { return d.db.Format() }

// data is the database the evaluators read: d's facts, or none for a nil
// d.
func (d *Database) data() *database.Database {
	if d == nil {
		return nil
	}
	return d.db
}

// Stats reports the work an evaluation performed, in the one counter type
// every strategy fills: Iterations (fixpoint rounds; QSQ passes),
// Inferences (rule instantiations including rederivations — the classic
// deductive-database cost metric; the counting runtime's moves),
// DerivedFacts, Probes, CountingNodes (the counting set, or the magic set
// of Magic and QSQ), AnswerTuples, ArenaValues (term values resident in
// the evaluation's arenas) and Duration (wall-clock, including
// rewriting). Fields that do not apply to a strategy are zero.
type Stats = engine.Stats

// AttemptInfo records one failed strategy attempt of the Auto fallback
// chain: graceful degradation ran this strategy, it failed with a
// retryable error, and evaluation moved on to the next strategy in the
// chain.
type AttemptInfo struct {
	// Strategy is the strategy that was attempted.
	Strategy Strategy
	// Err is the failure message of the attempt.
	Err string
	// Duration is the wall-clock time the attempt consumed.
	Duration time.Duration
	// Compile is the attempt's share of Duration spent compiling the
	// query (adornment, analysis, rewrite) — zero when the plan came
	// from the program's plan cache.
	Compile time.Duration
	// Execute is the attempt's share of Duration spent executing the
	// compiled plan before it failed.
	Execute time.Duration
	// PlanCacheHit reports whether the attempt's plan came from the
	// program's plan cache.
	PlanCacheHit bool
	// Stats holds the work counters the attempt accumulated before it
	// failed — the partial work a degraded run would otherwise discard.
	// Duration inside Stats is zero; use the field above.
	Stats Stats
}

// RuleProfile is one rule's share of an evaluation's work: its runs (one
// per delta occurrence per fixpoint iteration under semi-naive
// evaluation), its share of Inferences and DerivedFacts, and the
// wall-clock time spent joining its body. It is collected only when
// WithTracer or WithRuleProfile asks for it; Result.RuleProfile is nil
// otherwise. For rewriting strategies the rules are those of the
// rewritten program.
type RuleProfile = engine.RuleStat

// Result is the outcome of Eval.
type Result struct {
	// Answers holds one row per answer of the original query, each value
	// rendered as Datalog text. Bound query arguments are included, so
	// every strategy returns identical rows.
	Answers [][]string
	// Strategy is the concrete strategy that produced the answers
	// (resolves Auto, and reflects any degradation fallback).
	Strategy Strategy
	// Resolved is the strategy the evaluation initially resolved to: for
	// Auto it is the analyzer's first choice, for explicit strategies it
	// equals the requested strategy. Resolved differs from Strategy when
	// graceful degradation fell back (see Degraded) or when a rewriting
	// strategy delegated a purely extensional goal to SemiNaive.
	Resolved Strategy
	// Degraded lists the failed attempts that preceded the successful
	// one, in the order they were tried. Empty when the first strategy
	// succeeded. Only Auto degrades; explicit strategies fail fast.
	Degraded []AttemptInfo
	// Planner is the ranking an Auto evaluation ran on — the candidates
	// with their estimated costs, the pick first; nil for an explicit
	// strategy. The choice of the strategy that answered, held against
	// Stats.Inferences (PlannerChoice.QError), is the planner's error.
	Planner []PlannerChoice
	// Rewritten is the rewritten program text (empty for Naive and
	// SemiNaive; the analyzed canonical form for CountingRuntime).
	Rewritten string
	// RewrittenQuery is the rewritten goal text, when applicable.
	RewrittenQuery string
	Stats          Stats
	// CompileTime is the time this evaluation spent compiling the query
	// (adornment, analysis, rewrite, formatting). Near zero when the
	// plan came from the program's plan cache.
	CompileTime time.Duration
	// PlanCacheHit reports whether the successful strategy's plan came
	// from the program's plan cache rather than being compiled here.
	PlanCacheHit bool
	// RuleProfile holds per-rule work profiles when the evaluation ran
	// with WithTracer or WithRuleProfile (engine-evaluated strategies
	// only; nil otherwise), in component order — the data behind EXPLAIN
	// ANALYZE output and the query server's slow-query log.
	RuleProfile []RuleProfile
}

// ErrWrongDatabase is returned when a Database is used with a different
// Program than it was created for.
var ErrWrongDatabase = errors.New("lincount: database belongs to a different program")

// formatTuple renders a tuple with the program's bank.
func (p *Program) formatTuple(t database.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = p.bank.Format(v)
	}
	return out
}
