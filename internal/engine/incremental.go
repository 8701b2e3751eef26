package engine

// Incremental-maintenance primitives: an exported, resumable view of the
// rule executor for the internal/incremental package. A Joiner compiles a
// program's rules once per maintenance run and then runs individual rule
// variants under caller-controlled delta windows, row-state filters and
// the windowed exact-once counting read discipline — the three knobs the
// counting-based delta algorithm (insertion resume, exact decrement,
// overdelete, backward rederivation, rederive fixpoint) needs beyond what
// EvalContext's fixpoint loop exposes. All three are per-operator
// visibility filters resolved by ruleExec.begin (pipeline.go); there is
// no second evaluation path.

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
// tuples this way), in which case windowed reads of non-delta occurrences
// still target Rel with the window bounds.
type Delta struct {
	Rel    *database.Relation
	Lo, Hi database.RowID
}

// JoinConfig selects the read discipline for one Joiner.Run call.
type JoinConfig struct {
	// Windowed arms the exact-once counting discipline: a non-delta
	// occurrence of a predicate present in the delta map reads rows
	// [0, Hi) of the delta's Rel when it precedes the delta occurrence in
	// the source body, and [0, Lo) when it follows it. Every derivation
	// with at least one delta atom is then enumerated exactly once, at its
	// last newest-atom body position.
	Windowed bool
	// RowState holds per-row lifecycle states (-1 deleted, 0 original,
	// g ≥ 1 rederived in round g); FilterPrefix/FilterSuffix arm filtering
	// of occurrences before/after the delta occurrence to rows with
	// 0 ≤ state ≤ bound. Rows past a slice end and preds missing from the
	// map are treated as live originals. The delta occurrence itself is
	// never filtered.
	RowState     map[symtab.Sym][]int32
	FilterPrefix bool
	FilterSuffix bool
	PrefixBound  int32
	SuffixBound  int32
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

// VariantBodyIdx returns the source body position of variant occ's delta
// occurrence.
func (j *Joiner) VariantBodyIdx(i, occ int) int { return j.rules[i].recBodyIdx[occ] }

// Src returns the source rule of compiled rule i.
func (j *Joiner) Src(i int) ast.Rule { return j.rules[i].src }

// Run evaluates variant occ of rule i (occ outside the rule's variants
// selects the default order with no delta substitution) under cfg, calling
// out with the head tuple of every body solution. The tuple is reused
// across solutions; out must copy it to retain it. Duplicate derivations
// are NOT deduplicated — each distinct body instantiation produces one
// call — which is exactly what derivation counting needs; nor are they
// counted as Inferences. Solutions are delivered up to a batch late: out
// must not change a row the same run can still see through its windows
// and row-state bounds, and must not call Run.
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
