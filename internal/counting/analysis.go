// Package counting implements the paper's contribution: the extended
// counting rewrite for linear logic programs (Algorithm 1), the reduction
// of rewritten programs (Algorithm 3), the classical counting rewrite it
// generalizes, and the pointer-based counting runtime that evaluates
// queries over cyclic databases (Algorithm 2).
package counting

import (
	"errors"
	"fmt"
	"sort"

	"lincount/internal/adorn"
	"lincount/internal/ast"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Errors reported by the analysis. Callers typically fall back to the
// magic-set method when a program is outside the counting class.
var (
	// ErrNotLinear: some rule of the goal clique has more than one body
	// literal mutually recursive with its head.
	ErrNotLinear = errors.New("counting: program is not linear")
	// ErrNegatedRecursion: a recursive literal occurs negated.
	ErrNegatedRecursion = errors.New("counting: recursive literal is negated")
	// ErrNotApplicable: the left part cannot bind the recursive call, so
	// binding propagation by counting is impossible.
	ErrNotApplicable = errors.New("counting: left part cannot bind the recursive call")
	// ErrNoBoundArgs: the query has no bound argument.
	ErrNoBoundArgs = errors.New("counting: query has no bound arguments")
)

// ExitRule is an exit rule of the goal clique in canonical form.
type ExitRule struct {
	Rule ast.Rule
	// Bound and Free are the head argument lists split by the head
	// predicate's adornment (the paper's X and Y).
	Bound, Free []ast.Term
}

// RecRule is a linear recursive rule of the goal clique in canonical form
//
//	p(X,Y) ← L(A), q(X1,Y1), R(B)
type RecRule struct {
	Rule ast.Rule
	// ID identifies the rule in path entries (r1, r2, … in clique order).
	ID int
	// RecIndex is the position of the recursive literal in Rule.Body.
	RecIndex int
	// Left and Right are the body literal positions of the left and right
	// parts.
	Left, Right []int
	// HeadBound/HeadFree split the head arguments (X and Y).
	HeadBound, HeadFree []ast.Term
	// RecBound/RecFree split the recursive literal's arguments by the
	// callee's adornment (X1 and Y1).
	RecBound, RecFree []ast.Term
	// Shared is C_r: variables of the left part needed by the answer
	// phase (they occur in the right part or in the free head arguments)
	// and not recoverable from the counting predicate. Sorted by name.
	Shared []symtab.Sym
	// BoundInRight is D_r: bound head variables needed by the answer
	// phase. When non-empty the modified rule keeps a counting literal.
	BoundInRight []symtab.Sym
	// PushesCounting is false when the counting rule copies the path
	// unchanged (the Algorithm 1 special case: R empty, q = p, Y = Y1).
	PushesCounting bool
	// PushesModified is false when the modified rule copies the path
	// unchanged (the special case: L empty, q = p, X = X1).
	PushesModified bool
	// SkipCounting is true when no counting rule is generated at all
	// (L empty, q = p and X = X1: the counting set cannot grow).
	SkipCounting bool
	// SkipModified is true when no modified rule is generated
	// (R empty, q = p and Y = Y1: the answer does not change).
	SkipModified bool
	// FormallyLeftLinear / FormallyRightLinear record §5's syntactic
	// classification with respect to the adornment.
	FormallyLeftLinear, FormallyRightLinear bool
}

// Analysis is the canonical decomposition of an adorned linear program
// with respect to its query goal.
type Analysis struct {
	Adorned *adorn.Adorned
	// GoalPred is the adorned goal predicate.
	GoalPred symtab.Sym
	// Clique is the set of adorned predicates mutually recursive with the
	// goal predicate (including itself when recursive).
	Clique map[symtab.Sym]bool
	// Exit and Rec are the clique's rules in canonical form.
	Exit []ExitRule
	Rec  []RecRule
	// Passthrough are rules outside the goal clique (lower strata); they
	// are copied unchanged into every rewriting.
	Passthrough []ast.Rule
	// GoalBound/GoalFree split the query goal's arguments.
	GoalBound, GoalFree []ast.Term
}

// varsOf returns the set of variable names in the given terms.
func varsOf(ts []ast.Term) map[symtab.Sym]bool {
	out := map[symtab.Sym]bool{}
	for _, t := range ts {
		collectVars(t, out)
	}
	return out
}

func collectVars(t ast.Term, out map[symtab.Sym]bool) {
	switch t.Kind {
	case ast.Var:
		out[t.Name] = true
	case ast.Comp:
		for _, a := range t.Args {
			collectVars(a, out)
		}
	}
}

func litVars(ls []ast.Literal) map[symtab.Sym]bool {
	out := map[symtab.Sym]bool{}
	for _, l := range ls {
		for _, v := range l.Vars() {
			out[v] = true
		}
	}
	return out
}

func intersects(a, b map[symtab.Sym]bool) bool {
	for v := range a {
		if b[v] {
			return true
		}
	}
	return false
}

// sortedSyms returns the keys of m sorted by symbol name.
func sortedSyms(syms *symtab.Table, m map[symtab.Sym]bool) []symtab.Sym {
	out := make([]symtab.Sym, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		return syms.String(out[i]) < syms.String(out[j])
	})
	return out
}

// distinctVars reports whether ts are pairwise distinct variables.
func distinctVars(ts []ast.Term) bool {
	seen := map[symtab.Sym]bool{}
	for _, t := range ts {
		if t.Kind != ast.Var || seen[t.Name] {
			return false
		}
		seen[t.Name] = true
	}
	return true
}

// termsEqual reports element-wise structural equality.
func termsEqual(a, b []ast.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Analyze decomposes an adorned program for the counting rewrites. It
// verifies that the goal clique is linear and that every recursive rule's
// left part can bind the recursive call.
func Analyze(a *adorn.Adorned) (*Analysis, error) {
	bank := a.Program.Bank
	syms := bank.Symbols()

	if !hasBound(a.GoalAdornment) {
		return nil, ErrNoBoundArgs
	}

	// Identify the goal clique among adorned predicates.
	clique, err := goalClique(a)
	if err != nil {
		return nil, err
	}

	out := &Analysis{
		Adorned:  a,
		GoalPred: a.Query.Goal.Pred,
		Clique:   clique,
	}
	out.GoalBound, out.GoalFree = adorn.BoundArgs(a.Query.Goal, a.GoalAdornment)

	ruleID := 0
	for _, r := range a.Program.Rules {
		if !clique[r.Head.Pred] {
			out.Passthrough = append(out.Passthrough, r)
			continue
		}
		headPattern := a.Patterns[r.Head.Pred]
		headBound, headFree := adorn.BoundArgs(r.Head, headPattern)

		// Locate recursive literals.
		var recIdx []int
		for i, l := range r.Body {
			if clique[l.Pred] {
				if l.Negated {
					return nil, fmt.Errorf("%w: %s", ErrNegatedRecursion, ast.FormatRule(bank, r))
				}
				recIdx = append(recIdx, i)
			}
		}
		switch len(recIdx) {
		case 0:
			out.Exit = append(out.Exit, ExitRule{Rule: r, Bound: headBound, Free: headFree})
			continue
		case 1:
		default:
			return nil, fmt.Errorf("%w: rule %s has %d recursive literals",
				ErrNotLinear, ast.FormatRule(bank, r), len(recIdx))
		}

		ruleID++
		rec := RecRule{Rule: r, ID: ruleID, RecIndex: recIdx[0],
			HeadBound: headBound, HeadFree: headFree}
		recLit := r.Body[rec.RecIndex]
		recPattern := a.Patterns[recLit.Pred]
		rec.RecBound, rec.RecFree = adorn.BoundArgs(recLit, recPattern)

		if err := splitLeftRight(bank, &rec, r); err != nil {
			return nil, err
		}

		// C_r and D_r.
		headBoundVars := varsOf(rec.HeadBound)
		neededPhase2 := map[symtab.Sym]bool{}
		for i := range rec.Right {
			for _, v := range r.Body[rec.Right[i]].Vars() {
				neededPhase2[v] = true
			}
		}
		for v := range varsOf(rec.HeadFree) {
			neededPhase2[v] = true
		}
		// Variables already delivered by the recursive answer tuple.
		recFreeVars := varsOf(rec.RecFree)

		leftVars := map[symtab.Sym]bool{}
		for _, i := range rec.Left {
			for _, v := range r.Body[i].Vars() {
				leftVars[v] = true
			}
		}
		shared := map[symtab.Sym]bool{}
		boundInR := map[symtab.Sym]bool{}
		for v := range neededPhase2 {
			switch {
			case recFreeVars[v]:
				// Comes back with the recursive answer.
			case headBoundVars[v]:
				boundInR[v] = true
			case leftVars[v]:
				shared[v] = true
			}
		}
		rec.Shared = sortedSyms(syms, shared)
		rec.BoundInRight = sortedSyms(syms, boundInR)

		// Special cases of Algorithm 1.
		samePred := recLit.Pred == r.Head.Pred
		sameBound := samePred && termsEqual(rec.HeadBound, rec.RecBound)
		// A repeated variable among the free arguments filters the answers
		// passing through, so the modified rule is not a copy then.
		sameFree := samePred && termsEqual(rec.HeadFree, rec.RecFree) && distinctVars(rec.HeadFree)
		// So does a repeated variable or a constant among the bound
		// arguments of a rule that stays at its node: it holds only at the
		// nodes that match the pattern, and neither the rewrites nor the
		// runtime's same-node step apply that filter.
		if len(rec.Left) == 0 && sameBound && !distinctVars(rec.HeadBound) {
			return nil, fmt.Errorf("%w: rule %s stays at its node under a bound pattern that filters it",
				ErrNotApplicable, ast.FormatRule(bank, r))
		}
		rec.SkipCounting = len(rec.Left) == 0 && sameBound
		rec.SkipModified = len(rec.Right) == 0 && sameFree
		rec.PushesCounting = !(len(rec.Right) == 0 && sameFree)
		rec.PushesModified = !(len(rec.Left) == 0 && sameBound)

		rec.FormallyRightLinear = formallyLinear(a, r, recLit, 'f')
		rec.FormallyLeftLinear = formallyLinear(a, r, recLit, 'b')

		out.Rec = append(out.Rec, rec)
	}
	return out, nil
}

func hasBound(pattern string) bool {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == 'b' {
			return true
		}
	}
	return false
}

// goalClique computes the set of adorned predicates mutually recursive with
// the goal predicate. If the goal predicate is not recursive, the clique is
// just {goal}.
func goalClique(a *adorn.Adorned) (map[symtab.Sym]bool, error) {
	adj := map[symtab.Sym][]symtab.Sym{}
	for _, r := range a.Program.Rules {
		for _, l := range r.Body {
			if _, ok := a.Patterns[l.Pred]; ok {
				adj[r.Head.Pred] = append(adj[r.Head.Pred], l.Pred)
			}
		}
	}
	reach := func(from symtab.Sym) map[symtab.Sym]bool {
		seen := map[symtab.Sym]bool{}
		work := []symtab.Sym{from}
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					work = append(work, w)
				}
			}
		}
		return seen
	}
	goal := a.Query.Goal.Pred
	fromGoal := reach(goal)
	clique := map[symtab.Sym]bool{goal: true}
	for p := range fromGoal {
		if p == goal || reach(p)[goal] {
			clique[p] = true
		}
	}
	return clique, nil
}

// splitLeftRight assigns every non-recursive body literal to the left or
// right part:
//
//  1. Literals containing a free variable of the recursive call belong to
//     the right part (their bindings only exist in the answer phase).
//  2. Of the rest, literals connected — directly or through other such
//     literals — to the bound head or bound recursive-call variables form
//     the left part.
//  3. Anything else cannot help bind the recursive call and goes to the
//     right part.
//
// Afterwards the split is validated: vars(X1) ⊆ vars(X) ∪ vars(L), i.e.
// the left part together with the query binding determines the next
// counting node. A rule violating this is outside the counting class.
func splitLeftRight(bank *term.Bank, rec *RecRule, r ast.Rule) error {
	recFreeVars := varsOf(rec.RecFree)

	type litInfo struct {
		idx  int
		vars map[symtab.Sym]bool
		inR0 bool
	}
	var lits []litInfo
	for i, l := range r.Body {
		if i == rec.RecIndex {
			continue
		}
		info := litInfo{idx: i, vars: litVars([]ast.Literal{l})}
		info.inR0 = intersects(info.vars, recFreeVars)
		lits = append(lits, info)
	}

	// Connected-component growth from the bound-side seed set.
	seed := varsOf(rec.HeadBound)
	for v := range varsOf(rec.RecBound) {
		seed[v] = true
	}
	inL := make([]bool, len(lits))
	changed := true
	for changed {
		changed = false
		for i := range lits {
			if inL[i] || lits[i].inR0 {
				continue
			}
			if intersects(lits[i].vars, seed) {
				inL[i] = true
				changed = true
				for v := range lits[i].vars {
					seed[v] = true
				}
			}
		}
	}
	for i := range lits {
		if inL[i] {
			rec.Left = append(rec.Left, lits[i].idx)
		} else {
			rec.Right = append(rec.Right, lits[i].idx)
		}
	}
	sort.Ints(rec.Left)
	sort.Ints(rec.Right)

	// Validate that the left part binds the recursive call.
	available := varsOf(rec.HeadBound)
	for _, i := range rec.Left {
		for _, v := range r.Body[i].Vars() {
			available[v] = true
		}
	}
	for v := range varsOf(rec.RecBound) {
		if !available[v] {
			return fmt.Errorf("%w: rule %s: variable %s of the recursive call is bound neither by the head nor by the left part",
				ErrNotApplicable, ast.FormatRule(bank, r), bank.Symbols().String(v))
		}
	}
	return nil
}

// formallyLinear implements §5's definition: a rule is right-linear
// (mode 'f') or left-linear (mode 'b') with respect to the head adornment
// if (1) the recursive body literal has the same adornment, (2) every head
// variable in a mode-position occurs in the same position of the recursive
// literal, and (3) every such variable occurs exactly once in the recursive
// literal.
func formallyLinear(a *adorn.Adorned, r ast.Rule, recLit ast.Literal, mode byte) bool {
	headPattern := a.Patterns[r.Head.Pred]
	recPattern := a.Patterns[recLit.Pred]
	if headPattern != recPattern {
		return false
	}
	if len(r.Head.Args) != len(recLit.Args) {
		return false
	}
	// Count occurrences of each variable among the recursive literal's
	// arguments (top-level and nested).
	occ := map[symtab.Sym]int{}
	for _, t := range recLit.Args {
		countVarOcc(t, occ)
	}
	for i, t := range r.Head.Args {
		if headPattern[i] != mode {
			continue
		}
		if t.Kind != ast.Var {
			return false
		}
		rt := recLit.Args[i]
		if rt.Kind != ast.Var || rt.Name != t.Name {
			return false
		}
		if occ[t.Name] != 1 {
			return false
		}
	}
	return true
}

func countVarOcc(t ast.Term, occ map[symtab.Sym]int) {
	switch t.Kind {
	case ast.Var:
		occ[t.Name]++
	case ast.Comp:
		for _, a := range t.Args {
			countVarOcc(a, occ)
		}
	}
}

// ProgramClass is §5's taxonomy of linear programs.
type ProgramClass uint8

const (
	// GeneralLinear: linear, but not composed solely of left-/right-linear
	// rules over one recursive predicate.
	GeneralLinear ProgramClass = iota
	// RightLinearClass: every recursive rule is right-linear.
	RightLinearClass
	// LeftLinearClass: every recursive rule is left-linear.
	LeftLinearClass
	// MixedLinearClass: one recursive predicate, each rule left- or
	// right-linear, with at least one of each.
	MixedLinearClass
)

// String implements fmt.Stringer.
func (c ProgramClass) String() string {
	switch c {
	case RightLinearClass:
		return "right-linear"
	case LeftLinearClass:
		return "left-linear"
	case MixedLinearClass:
		return "mixed-linear"
	default:
		return "general-linear"
	}
}

// ListRewriteSafe reports whether the list-based extended counting rewrite
// (Algorithm 1) is sound for this clique. The list form is unsound when a
// non-pushing (left-linear) modified rule must recover its bound head
// variables through the counting predicate while other rules grow the
// counting set: several nodes then share a path and the join is ambiguous.
// The pointer-based Runtime is sound for every linear program.
func (an *Analysis) ListRewriteSafe() bool {
	needsJoin := false
	growsSet := false
	for i := range an.Rec {
		r := &an.Rec[i]
		if !r.PushesModified && len(r.BoundInRight) > 0 {
			needsJoin = true
		}
		if !r.SkipCounting {
			growsSet = true
		}
	}
	return !(needsJoin && growsSet)
}

// Classify applies §5's definition of right-, left- and mixed-linear
// programs to the goal clique.
func (an *Analysis) Classify() ProgramClass {
	if len(an.Rec) == 0 || len(an.Clique) != 1 {
		return GeneralLinear
	}
	allRight, allLeft, allEither := true, true, true
	for _, r := range an.Rec {
		if !r.FormallyRightLinear {
			allRight = false
		}
		if !r.FormallyLeftLinear {
			allLeft = false
		}
		if !r.FormallyRightLinear && !r.FormallyLeftLinear {
			allEither = false
		}
	}
	switch {
	case allRight:
		return RightLinearClass
	case allLeft:
		return LeftLinearClass
	case allEither:
		return MixedLinearClass
	default:
		return GeneralLinear
	}
}
