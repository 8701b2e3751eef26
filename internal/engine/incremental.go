package engine

// Incremental-maintenance primitives: an exported, resumable view of the
// rule executor for the internal/incremental package. A Joiner compiles a
// program's rules once per maintenance run and then runs individual rule
// variants under caller-controlled delta windows and an optional dead-row
// filter — the two knobs DRed maintenance (overdelete, rederive, insertion
// resume) needs beyond what EvalContext's fixpoint loop exposes. Both are
// per-operator visibility filters resolved by ruleExec.begin
// (pipeline.go); there is no second evaluation path.

import (
	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/limits"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Delta is a window of rows acting as the delta occurrence for a predicate:
// rows [Lo, Hi) of Rel. Rel may be a scratch relation distinct from the
// predicate's stored relation (deletion passes feed copies of the deleted
// tuples this way).
type Delta struct {
	Rel    *database.Relation
	Lo, Hi database.RowID
}

// JoinConfig selects the read discipline for one Joiner.Run call.
type JoinConfig struct {
	// Dead, when non-nil, hides dead rows: a non-delta occurrence of a
	// predicate skips row id when Dead[pred][id] is set. Rows past a
	// slice end and predicates missing from the map are live. The delta
	// occurrence itself is never filtered.
	Dead map[symtab.Sym][]bool
}

// Joiner evaluates compiled rule variants of one program against a base
// database plus externally owned derived relations. The derived map is
// retained by reference and read live: the maintainer may replace relations
// in it (compaction) between Run calls. Not safe for concurrent use.
type Joiner struct {
	ev    *evaluator
	rules []*compiledRule
}

// NewJoiner compiles the non-fact rules of rules for maintenance. mutable
// marks the predicates whose deltas will be substituted: every positive
// non-builtin body occurrence of a mutable predicate gets a compiled
// variant with that occurrence as the delta. derived is retained by
// reference; check may be nil.
func NewJoiner(bank *term.Bank, db *database.Database, derived map[symtab.Sym]*database.Relation,
	rules []ast.Rule, mutable map[symtab.Sym]bool, check *limits.Checker) (*Joiner, error) {
	ev := &evaluator{bank: bank, db: db, derived: derived, check: check}
	j := &Joiner{ev: ev}
	for _, r := range rules {
		if r.IsFact() {
			continue
		}
		cr, err := compileRule(bank, r, mutable, func(pred symtab.Sym) int {
			if rel := ev.readRel(pred); rel != nil {
				return rel.Len()
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		j.rules = append(j.rules, cr)
	}
	return j, nil
}

// Rules reports the number of compiled (non-fact) rules.
func (j *Joiner) Rules() int { return len(j.rules) }

// HeadPred returns the head predicate of rule i.
func (j *Joiner) HeadPred(i int) symtab.Sym { return j.rules[i].headPred }

// Variants reports the number of delta variants of rule i (one per mutable
// positive body occurrence).
func (j *Joiner) Variants(i int) int { return j.rules[i].nRecOccur() }

// VariantPred returns the predicate at the delta occurrence of variant occ
// of rule i.
func (j *Joiner) VariantPred(i, occ int) symtab.Sym {
	cr := j.rules[i]
	return cr.src.Body[cr.recBodyIdx[occ]].Pred
}

// Run evaluates variant occ of rule i (occ outside the rule's variants
// selects the default order with no delta substitution) under cfg, calling
// out with the head tuple of every body solution. The tuple is reused
// across solutions; out must copy it to retain it. Duplicate derivations
// are NOT deduplicated — each body instantiation produces one call — nor
// are they counted as Inferences. Solutions are delivered up to a batch
// late: out may append to or revive rows of a relation the run reads (the
// run then sees the revived rows or not, depending on timing), but must
// hide none of them and must not call Run.
func (j *Joiner) Run(i, occ int, delta map[symtab.Sym]Delta, cfg JoinConfig, out func(database.Tuple) error) error {
	re := j.ev.execFor(j.rules[i], occ)
	re.begin(delta, cfg)
	return re.run(out)
}

// NewResult wraps externally maintained derived relations as an evaluation
// Result so that Answers can serve queries from a materialisation without
// re-running a fixpoint.
func NewResult(bank *term.Bank, derived map[symtab.Sym]*database.Relation) *Result {
	return &Result{bank: bank, maintained: true, Derived: derived}
}
