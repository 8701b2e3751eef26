package lincount

import (
	"context"
	"fmt"

	"lincount/internal/ast"
	"lincount/internal/parser"
)

// PreparedQuery is a query compiled ahead of time against one Program:
// the query text is parsed once at Prepare time, and the compilation
// pipeline (adornment, linearity analysis, rewriting) runs at most once
// per strategy through the program's plan cache — every Eval after the
// first reuses the compiled plan and pays only for execution.
//
// A PreparedQuery is immutable and safe for concurrent use: any number
// of goroutines may call Eval on the same prepared query against the
// same or different databases.
type PreparedQuery struct {
	p        *Program
	q        ast.Query
	strategy Strategy
	opts     []Option
}

// Prepare parses and compiles query against p ahead of evaluation.
// opts are captured into the prepared query and applied to every Eval
// (Eval-time options append after them, so they can override budgets or
// attach per-call observers).
//
// For an explicit strategy the compilation pipeline runs eagerly, so
// Prepare surfaces inapplicability errors (a non-linear program prepared
// with a counting strategy, a query with no bound arguments prepared
// with Magic) before any database work. For Auto, planning is
// data-dependent — the planner ranks candidates using the database's
// relation cardinalities — so Prepare only parses and the plan is chosen
// (and cached) at Eval time.
func Prepare(p *Program, query string, strategy Strategy, opts ...Option) (*PreparedQuery, error) {
	cfg := evalConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	psp := cfg.exec.Tracer.Begin("eval", "parse")
	q, err := parser.ParseQuery(p.bank, query)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("lincount: parsing query: %w", err)
	}
	pq := &PreparedQuery{p: p, q: q, strategy: strategy, opts: opts}
	if strategy != Auto {
		cfg.queryText = ast.FormatQuery(p.bank, q)
		cfg.shared = p.sharedFor(cfg.queryText, q, cfg.noCache)
		if _, _, _, err := p.planFor(strategy, cfg); err != nil {
			return nil, err
		}
	}
	return pq, nil
}

// Program returns the program the query was prepared against.
func (pq *PreparedQuery) Program() *Program { return pq.p }

// Text returns the normalized query text.
func (pq *PreparedQuery) Text() string { return ast.FormatQuery(pq.p.bank, pq.q) }

// Strategy returns the strategy the query was prepared with.
func (pq *PreparedQuery) Strategy() Strategy { return pq.strategy }

// Eval evaluates the prepared query against db. Equivalent to Eval with
// the prepared query's text, strategy and options, minus the parse and
// (after the first call) the compilation.
func (pq *PreparedQuery) Eval(db *Database, extra ...Option) (*Result, error) {
	return pq.EvalContext(context.Background(), db, extra...)
}

// EvalContext is Eval governed by a context; see EvalContext (package
// level) for the cancellation contract.
func (pq *PreparedQuery) EvalContext(ctx context.Context, db *Database, extra ...Option) (*Result, error) {
	cfg := evalConfig{}
	for _, o := range pq.opts {
		o(&cfg)
	}
	for _, o := range extra {
		o(&cfg)
	}
	esp := cfg.exec.Tracer.Begin("eval", "eval")
	defer esp.End()
	return evalCore(ctx, pq.p, db, pq.q, pq.strategy, cfg)
}
