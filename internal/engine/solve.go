package engine

import (
	"fmt"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/limits"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Matcher evaluates body conjunctions against a base database plus a set of
// derived relations. It is the engine primitive the counting runtime
// (Algorithm 2) uses to instantiate left parts, exit bodies and right parts
// under externally supplied bindings, and QSQ uses to pass bindings
// sideways through rule bodies.
type Matcher struct {
	bank    *term.Bank
	db      *database.Database
	derived map[symtab.Sym]*database.Relation
	check   *limits.Checker
	// Solves and Probes count work for the benchmark harness.
	Solves int64
	Probes int64
	// Dead, when non-nil, hides dead rows from every relation occurrence
	// a subsequently prepared solve reads (JoinConfig.Dead). The
	// incremental maintainer's rederivation check uses it to look for a
	// derivation over live rows only. Set before Prepare.
	Dead map[symtab.Sym][]bool
}

// NewMatcher returns a matcher reading from db and derived (either may be
// nil).
func NewMatcher(bank *term.Bank, db *database.Database, derived map[symtab.Sym]*database.Relation) *Matcher {
	return &Matcher{bank: bank, db: db, derived: derived}
}

// SetChecker installs the cooperative cancellation checker that solvers
// prepared afterwards poll during their joins. Call before Prepare.
func (m *Matcher) SetChecker(c *limits.Checker) { m.check = c }

// solvePredName and givenPredName are the reserved predicates of the
// synthetic rule a PreparedSolve compiles.
const (
	solvePredName = "$solve"
	givenPredName = "$given"
)

// PreparedSolve is a compiled conjunction query: body literals evaluated
// under externally supplied bindings, producing one value tuple per
// solution. Prepare once per rule site, Solve once per binding or
// SolveRows once per batch of bindings. It is an ordinary rule run: the
// rule "$solve(want, tags) :- $given(given, tags), body" with the
// caller's rows as the delta occurrence.
type PreparedSolve struct {
	m     *Matcher
	re    *ruleExec
	arity int // values per binding row: the given terms, then the tags
	cfg   JoinConfig
}

// Prepare compiles body for repeated evaluation. boundVars lists the
// variables whose values each Solve call supplies; want lists the variables
// whose values are reported (they may overlap boundVars). The compiled
// ordering starts from the binding, so index probes see the bound values.
func (m *Matcher) Prepare(body []ast.Literal, boundVars, want []symtab.Sym) (*PreparedSolve, error) {
	return m.PrepareTerms(body, ast.Vs(boundVars), ast.Vs(want), 0)
}

// PrepareTerms is Prepare over terms, for callers whose bindings and
// results are patterns rather than plain variables. A binding row holds
// one value per given term followed by tags pass-through values: the
// given terms are unified with the row (a row that does not match has no
// solutions; variables shared between terms must agree), the body is
// solved under the resulting bindings, and each solution reports the
// want terms instantiated, followed by the row's tags untouched — what
// lets a caller batch many bindings into one run and still tell whose
// solution is whose.
func (m *Matcher) PrepareTerms(body []ast.Literal, given, want []ast.Term, tags int) (*PreparedSolve, error) {
	syms := m.bank.Symbols()
	givenPred := syms.Intern(givenPredName)
	givenArgs := append(make([]ast.Term, 0, len(given)+tags), given...)
	headArgs := append(make([]ast.Term, 0, len(want)+tags), want...)
	for i := 0; i < tags; i++ {
		tag := ast.V(syms.Intern(fmt.Sprintf("$tag%d", i)))
		givenArgs = append(givenArgs, tag)
		headArgs = append(headArgs, tag)
	}
	fullBody := make([]ast.Literal, 0, len(body)+1)
	fullBody = append(fullBody, ast.Atom(givenPred, givenArgs...))
	fullBody = append(fullBody, body...)
	// Marking $given as "recursive" makes compileRule emit an ordering
	// that starts from it, so every run begins from the binding rows.
	cr, err := compileRule(m.bank, ast.Rule{
		Head: ast.Literal{Pred: syms.Intern(solvePredName), Args: headArgs},
		Body: fullBody,
	}, map[symtab.Sym]bool{givenPred: true}, func(pred symtab.Sym) int {
		if rel, ok := m.derived[pred]; ok {
			return rel.Len()
		}
		if m.db != nil {
			if rel := m.db.Relation(pred); rel != nil {
				return rel.Len()
			}
		}
		return 0
	})
	if err != nil {
		return nil, fmt.Errorf("engine: Prepare: %w", err)
	}
	ps := &PreparedSolve{
		m:     m,
		arity: len(givenArgs),
		// The $given occurrence is the delta (never filtered); the dead
		// filter covers every real body literal.
		cfg: JoinConfig{Dead: m.Dead},
	}
	ps.re = newRuleExec(&evaluator{bank: m.bank, db: m.db, derived: m.derived, check: m.check}, cr, 0)
	ps.re.callerRows = true
	return ps, nil
}

// Solve evaluates the prepared conjunction under one binding row and
// calls out with the values of each solution. The out slice is reused
// across calls. Solutions are delivered up to a batch late: out must not
// change what the matcher reads, and must not call Solve on the same
// PreparedSolve.
func (ps *PreparedSolve) Solve(boundVals []term.Value, out func([]term.Value) error) error {
	if len(boundVals) != ps.arity {
		return fmt.Errorf("engine: Solve: got %d bound values, want %d", len(boundVals), ps.arity)
	}
	return ps.SolveRows(boundVals, 1, out)
}

// SolveRows is Solve over n binding rows held flat in rows (n × the row
// width of PrepareTerms) in one run of the pipeline: every operator sees
// the rows' frames as batches, and the solutions arrive grouped by row,
// in row order, each group in the order Solve would deliver it.
func (ps *PreparedSolve) SolveRows(rows []term.Value, n int, out func([]term.Value) error) error {
	if len(rows) != n*ps.arity {
		return fmt.Errorf("engine: SolveRows: got %d values for %d rows of %d", len(rows), n, ps.arity)
	}
	ps.m.Solves += int64(n)
	ev := ps.re.ev
	before := ev.stats.Probes
	ps.re.begin(nil, ps.cfg)
	err := ps.re.runRows(rows, n, func(t database.Tuple) error { return out(t) })
	ps.m.Probes += ev.stats.Probes - before
	return err
}

// MatchTerms unifies a list of patterns (possibly sharing variables)
// against ground values, extending the bound map in place. It reports
// whether unification succeeded; on failure bound may contain partial
// bindings and should be discarded.
func MatchTerms(bank *term.Bank, pats []ast.Term, vals []term.Value, bound map[symtab.Sym]term.Value) bool {
	if len(pats) != len(vals) {
		return false
	}
	for i := range pats {
		if !matchTerm(bank, pats[i], vals[i], bound) {
			return false
		}
	}
	return true
}

func matchTerm(bank *term.Bank, p ast.Term, v term.Value, bound map[symtab.Sym]term.Value) bool {
	switch p.Kind {
	case ast.Const:
		return p.Value == v
	case ast.Var:
		if old, ok := bound[p.Name]; ok {
			return old == v
		}
		bound[p.Name] = v
		return true
	default:
		if !v.IsCompound() {
			return false
		}
		c := bank.Deref(v)
		if c.Functor != p.Name || len(c.Args) != len(p.Args) {
			return false
		}
		for i := range p.Args {
			if !matchTerm(bank, p.Args[i], c.Args[i], bound) {
				return false
			}
		}
		return true
	}
}

// InstantiateTerm grounds a term under the given bindings; ok is false if
// an unbound variable remains.
func InstantiateTerm(bank *term.Bank, t ast.Term, bound map[symtab.Sym]term.Value) (term.Value, bool) {
	switch t.Kind {
	case ast.Const:
		return t.Value, true
	case ast.Var:
		v, ok := bound[t.Name]
		return v, ok
	default:
		args := make([]term.Value, len(t.Args))
		for i, a := range t.Args {
			v, ok := InstantiateTerm(bank, a, bound)
			if !ok {
				return 0, false
			}
			args[i] = v
		}
		return bank.Compound(t.Name, args...), true
	}
}
