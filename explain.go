package lincount

import (
	"errors"
	"fmt"
	"slices"

	"lincount/internal/ast"
	"lincount/internal/counting"
	"lincount/internal/engine"
	"lincount/internal/parser"
	"lincount/internal/plan"
)

// Explanation pairs one answer row of a query with a derivation witness:
// the exit-rule application and the sequence of recursive-rule undo steps
// that produced it. Witnesses come from the counting runtime, whose
// predecessor entries (the paper's §3.4 pointer structure) record exactly
// the information needed to reconstruct them.
type Explanation struct {
	// Answer is the full answer row (bound and free arguments).
	Answer []string
	// Witness is the formatted derivation, one step per line.
	Witness string
}

// CountingSet renders the counting set the runtime would build for the
// query over db, in the paper's notation: node identifiers in depth-first
// discovery order with their ahead predecessor sets, cycle links from back
// arcs, and the combined f sets (see §4 and Example 5 of the paper).
func CountingSet(p *Program, db *Database, query string) (string, error) {
	if db != nil && db.owner != p {
		return "", ErrWrongDatabase
	}
	q, err := parser.ParseQuery(p.bank, query)
	if err != nil {
		return "", fmt.Errorf("lincount: parsing query: %w", err)
	}
	sh := p.sharedFor(ast.FormatQuery(p.bank, q), q, false)
	an, err := sh.Analysis()
	if err != nil {
		return "", err
	}
	return counting.DumpCountingSet(an, db.data())
}

// Explain evaluates query with the counting runtime, recording provenance,
// and returns every answer with its derivation witness, in the order Eval
// returns the answers. It requires a linear program with a bound query
// argument (the counting class).
func Explain(p *Program, db *Database, query string) ([]Explanation, error) {
	if db != nil && db.owner != p {
		return nil, ErrWrongDatabase
	}
	q, err := parser.ParseQuery(p.bank, query)
	if err != nil {
		return nil, fmt.Errorf("lincount: parsing query: %w", err)
	}
	sh := p.sharedFor(ast.FormatQuery(p.bank, q), q, false)
	a, err := sh.Adorned()
	if err != nil {
		return nil, err
	}
	if len(a.Program.Rules) == 0 {
		return nil, fmt.Errorf("lincount: %s is extensional; nothing to explain",
			p.bank.Symbols().String(q.Goal.Pred))
	}
	an, err := sh.Analysis()
	if err != nil {
		return nil, err
	}
	rt, res, err := counting.RunWithProvenance(an, db.data(), counting.RuntimeOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]Explanation, 0, len(res.Answers))
	full := counting.ReconstructRuntimeAnswers(an, res.Answers)
	for i, frees := range res.Answers {
		d, err := rt.Explain(frees)
		if err != nil {
			return nil, err
		}
		out = append(out, Explanation{
			Answer:  p.formatTuple(full[i]),
			Witness: d.Format(p.bank),
		})
	}
	// The runtime's answers are distinct; order them as finishRows does.
	slices.SortFunc(out, func(a, b Explanation) int { return slices.Compare(a.Answer, b.Answer) })
	return out, nil
}

// compileFor compiles one strategy for an introspection entry point
// (Plan, Rewrite), resolving Auto with the planner first. It goes
// through the plan cache with default options, so introspection warms
// the same entries evaluation uses.
func (p *Program) compileFor(q ast.Query, strategy Strategy) (*plan.CompiledQuery, Strategy, error) {
	cfg := evalConfig{}
	cfg.queryText = ast.FormatQuery(p.bank, q)
	cfg.shared = p.sharedFor(cfg.queryText, q, false)
	if strategy == Auto {
		strategy = plan.Rank(cfg.shared, nil)[0].Strategy
	}
	cq, _, _, err := p.planFor(strategy, cfg)
	return cq, strategy, err
}

// Plan returns the evaluation plan — strata in execution order and, per
// rule, the compiled join order with index probe patterns — of the program
// a strategy would evaluate for the query. When db is non-nil its relation
// cardinalities participate in the join ordering, as during evaluation.
// Not available for CountingRuntime (not evaluated by the rule engine).
func Plan(p *Program, db *Database, query string, strategy Strategy) (string, error) {
	if db != nil && db.owner != p {
		return "", ErrWrongDatabase
	}
	q, err := parser.ParseQuery(p.bank, query)
	if err != nil {
		return "", err
	}
	cq, resolved, err := p.compileFor(q, strategy)
	if resolved == CountingRuntime {
		return "", errors.New("lincount: the counting runtime is not evaluated by the rule engine; see Rewrite for its declarative form")
	}
	if err != nil {
		return "", err
	}
	return engine.PlanText(cq.Program, db.data())
}

// Rewrite returns the rewritten program and goal text for a strategy
// without evaluating it. For Naive and SemiNaive it returns the original
// program.
func Rewrite(p *Program, query string, strategy Strategy) (program, goal string, err error) {
	q, err := parser.ParseQuery(p.bank, query)
	if err != nil {
		return "", "", err
	}
	cq, resolved, err := p.compileFor(q, strategy)
	if resolved == Naive || resolved == SemiNaive {
		return p.program.Format(), ast.FormatQuery(p.bank, q), nil
	}
	if err != nil {
		return "", "", err
	}
	if cq.Extensional {
		return p.program.Format(), ast.FormatQuery(p.bank, q), nil
	}
	return cq.RewrittenText, cq.RewrittenQueryText, nil
}
