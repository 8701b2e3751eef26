package counting

import (
	"fmt"
	"strconv"

	"lincount/internal/ast"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Naming conventions of the rewrite.
const (
	// CountingPrefix is prepended to an adorned predicate name to form
	// its counting predicate.
	CountingPrefix = "c_"
	// EntryFunctor is the functor of path entries e(rule, [shared…]).
	EntryFunctor = "e"
	// RuleIDPrefix prefixes rule identifiers r1, r2, … in path entries.
	RuleIDPrefix = "r"
)

// Rewritten is the output of a counting rewrite. The Program is evaluated
// with the ordinary engine; the Query's answers are the original goal's
// free-argument tuples.
type Rewritten struct {
	Program *ast.Program
	Query   ast.Query
	// CountingPreds maps each counting predicate to the adorned predicate
	// it counts.
	CountingPreds map[symtab.Sym]symtab.Sym
	// AnswerPreds is the set of rewritten answer predicates (the goal
	// clique, with free-args+path signatures).
	AnswerPreds map[symtab.Sym]bool
	// Analysis is the decomposition the rewrite was built from.
	Analysis *Analysis
}

// freshVar returns a variable name starting with base that does not occur
// in used, interned into syms.
func freshVar(syms *symtab.Table, used map[symtab.Sym]bool, base string) symtab.Sym {
	name := base
	for i := 1; ; i++ {
		s := syms.Intern(name)
		if !used[s] {
			used[s] = true
			return s
		}
		name = base + strconv.Itoa(i)
	}
}

// ruleIDConst returns the constant identifying rule r in path entries.
func ruleIDConst(bank *term.Bank, id int) ast.Term {
	return ast.C(term.Symbol(bank.Symbols().Intern(RuleIDPrefix + strconv.Itoa(id))))
}

// entryVars lists the variables a rule's path entry must carry: the shared
// variables C_r plus the bound head variables D_r the right part needs.
//
// Storing D_r in the entry (as §3.2's prose prescribes: "we need to store
// in the list the values of such variables") rather than re-joining the
// counting predicate on the path (Example 4's shortcut) is required for
// soundness of the list representation: non-pushing (right-linear)
// counting rules make several counting nodes share one path, so a join
// c_p(X,L) on the path alone can recover the wrong node. The shortcut is
// only sound under the §3.4 pointer reading, which the Runtime implements.
func entryVars(r *RecRule) []symtab.Sym {
	out := append([]symtab.Sym{}, r.Shared...)
	return append(out, r.BoundInRight...) // disjoint from Shared by construction
}

// entryTerm builds the path entry e(rID, [C_r…, D_r…]) for a recursive rule.
func entryTerm(bank *term.Bank, r *RecRule) ast.Term {
	e := bank.Symbols().Intern(EntryFunctor)
	vars := entryVars(r)
	args := make([]ast.Term, len(vars))
	for i, v := range vars {
		args[i] = ast.V(v)
	}
	return ast.Mk(bank, e, ruleIDConst(bank, r.ID), ast.MkList(bank, args, ast.NilTerm(bank)))
}

// RewriteFromAnalysis applies Algorithm 1 (the extended counting
// rewriting with path arguments) to an analyzed adorned query; a
// compilation pipeline analyzes once for strategy selection and every
// rewrite starts from that Analysis. The resulting program is safe on
// databases whose left-part graph is acyclic; on cyclic data its
// evaluation diverges, which the engine budget turns into an error — use
// the Runtime (Algorithm 2) for cyclic data.
func RewriteFromAnalysis(an *Analysis) (*Rewritten, error) {
	return rewriteFromAnalysis(an)
}

func rewriteFromAnalysis(an *Analysis) (*Rewritten, error) {
	if !an.ListRewriteSafe() {
		return nil, fmt.Errorf("%w: a left-linear rule uses a bound head variable in its right part while other rules grow the counting set; the list representation cannot recover the node (use the counting runtime)", ErrNotApplicable)
	}
	a := an.Adorned
	bank := a.Program.Bank
	syms := bank.Symbols()

	out := &Rewritten{
		Program:       ast.NewProgram(bank),
		CountingPreds: map[symtab.Sym]symtab.Sym{},
		AnswerPreds:   map[symtab.Sym]bool{},
		Analysis:      an,
	}
	countingSym := func(p symtab.Sym) symtab.Sym {
		c := syms.Intern(CountingPrefix + syms.String(p))
		out.CountingPreds[c] = p
		return c
	}
	for p := range an.Clique {
		out.AnswerPreds[p] = true
	}

	// Pass-through rules first (lower strata).
	out.Program.Add(an.Passthrough...)

	// Seed: c_goal(ā, []).
	seedArgs := append(append([]ast.Term{}, an.GoalBound...), ast.NilTerm(bank))
	out.Program.Add(ast.Rule{Head: ast.Literal{
		Pred: countingSym(an.GoalPred),
		Args: seedArgs,
	}})

	// Counting rules.
	for i := range an.Rec {
		r := &an.Rec[i]
		if r.SkipCounting {
			continue
		}
		used := map[symtab.Sym]bool{}
		for _, v := range r.Rule.Vars() {
			used[v] = true
		}
		pathVar := ast.V(freshVar(syms, used, "L"))
		recLit := r.Rule.Body[r.RecIndex]

		var headPath ast.Term
		if r.PushesCounting {
			headPath = ast.MkList(bank, []ast.Term{entryTerm(bank, r)}, pathVar)
		} else {
			headPath = pathVar
		}
		head := ast.Literal{
			Pred: countingSym(recLit.Pred),
			Args: append(append([]ast.Term{}, r.RecBound...), headPath),
		}
		body := []ast.Literal{{
			Pred: countingSym(r.Rule.Head.Pred),
			Args: append(append([]ast.Term{}, r.HeadBound...), pathVar),
		}}
		for _, li := range r.Left {
			body = append(body, r.Rule.Body[li])
		}
		out.Program.Add(ast.Rule{Head: head, Body: body})
	}

	// Modified exit rules.
	for _, e := range an.Exit {
		used := map[symtab.Sym]bool{}
		for _, v := range e.Rule.Vars() {
			used[v] = true
		}
		pathVar := ast.V(freshVar(syms, used, "L"))
		head := ast.Literal{
			Pred: e.Rule.Head.Pred,
			Args: append(append([]ast.Term{}, e.Free...), pathVar),
		}
		body := []ast.Literal{{
			Pred: countingSym(e.Rule.Head.Pred),
			Args: append(append([]ast.Term{}, e.Bound...), pathVar),
		}}
		body = append(body, e.Rule.Body...)
		out.Program.Add(ast.Rule{Head: head, Body: body})
	}

	// Modified recursive rules.
	for i := range an.Rec {
		r := &an.Rec[i]
		if r.SkipModified {
			continue
		}
		used := map[symtab.Sym]bool{}
		for _, v := range r.Rule.Vars() {
			used[v] = true
		}
		pathVar := ast.V(freshVar(syms, used, "L"))
		recLit := r.Rule.Body[r.RecIndex]

		var recPath ast.Term
		if r.PushesModified {
			recPath = ast.MkList(bank, []ast.Term{entryTerm(bank, r)}, pathVar)
		} else {
			recPath = pathVar
		}
		head := ast.Literal{
			Pred: r.Rule.Head.Pred,
			Args: append(append([]ast.Term{}, r.HeadFree...), pathVar),
		}
		body := []ast.Literal{{
			Pred: recLit.Pred,
			Args: append(append([]ast.Term{}, r.RecFree...), recPath),
		}}
		// Pushing rules recover D_r from the entry; only non-pushing
		// (left-linear) rules need the counting literal, and the
		// ListRewriteSafe guard has ensured the counting set is then the
		// seed alone, so the path join is unambiguous.
		if len(r.BoundInRight) > 0 && !r.PushesModified {
			body = append(body, ast.Literal{
				Pred: countingSym(r.Rule.Head.Pred),
				Args: append(append([]ast.Term{}, r.HeadBound...), pathVar),
			})
		}
		for _, ri := range r.Right {
			body = append(body, r.Rule.Body[ri])
		}
		out.Program.Add(ast.Rule{Head: head, Body: body})
	}

	// Query: goal(freeArgs…, []).
	out.Query = ast.Query{Goal: ast.Literal{
		Pred: an.GoalPred,
		Args: append(append([]ast.Term{}, an.GoalFree...), ast.NilTerm(bank)),
	}}
	return out, nil
}

// RewriteClassicFromAnalysis applies the classical counting method
// (integer distance index, as in the paper's Example 1) to an analyzed
// adorned query. It is only applicable when the goal clique has exactly
// one recursive rule, the left and right part share no variables, and no
// bound head variable occurs in the right part; cyclic data additionally
// makes the rewritten program unsafe at evaluation time.
func RewriteClassicFromAnalysis(an *Analysis) (*Rewritten, error) {
	a := an.Adorned
	if len(an.Clique) != 1 {
		return nil, fmt.Errorf("%w: classical counting requires a single recursive predicate", ErrNotApplicable)
	}
	if len(an.Rec) != 1 {
		return nil, fmt.Errorf("%w: classical counting requires exactly one recursive rule, got %d",
			ErrNotApplicable, len(an.Rec))
	}
	r := &an.Rec[0]
	if len(r.Shared) != 0 || len(r.BoundInRight) != 0 {
		return nil, fmt.Errorf("%w: classical counting requires disjoint left and right parts", ErrNotApplicable)
	}

	bank := a.Program.Bank
	syms := bank.Symbols()
	out := &Rewritten{
		Program:       ast.NewProgram(bank),
		CountingPreds: map[symtab.Sym]symtab.Sym{},
		AnswerPreds:   map[symtab.Sym]bool{an.GoalPred: true},
		Analysis:      an,
	}
	cSym := syms.Intern(CountingPrefix + syms.String(an.GoalPred))
	out.CountingPreds[cSym] = an.GoalPred
	succ := syms.Intern(ast.BuiltinSucc)

	out.Program.Add(an.Passthrough...)

	// Seed: c_goal(ā, 0).
	out.Program.Add(ast.Rule{Head: ast.Literal{
		Pred: cSym,
		Args: append(append([]ast.Term{}, an.GoalBound...), ast.C(term.Int(0))),
	}})

	// Counting rule: c(X1, I1) ← c(X, I), L(A), succ(I, I1).
	used := map[symtab.Sym]bool{}
	for _, v := range r.Rule.Vars() {
		used[v] = true
	}
	iVar := ast.V(freshVar(syms, used, "I"))
	i1Var := ast.V(freshVar(syms, used, "I1"))
	if !r.SkipCounting {
		body := []ast.Literal{{
			Pred: cSym,
			Args: append(append([]ast.Term{}, r.HeadBound...), iVar),
		}}
		for _, li := range r.Left {
			body = append(body, r.Rule.Body[li])
		}
		var headIdx ast.Term = iVar
		if r.PushesCounting {
			body = append(body, ast.Atom(succ, iVar, i1Var))
			headIdx = i1Var
		}
		out.Program.Add(ast.Rule{
			Head: ast.Literal{
				Pred: cSym,
				Args: append(append([]ast.Term{}, r.RecBound...), headIdx),
			},
			Body: body,
		})
	}

	// Modified exit rules: p(Y, I) ← c(X, I), E(B).
	for _, e := range an.Exit {
		usedE := map[symtab.Sym]bool{}
		for _, v := range e.Rule.Vars() {
			usedE[v] = true
		}
		iv := ast.V(freshVar(syms, usedE, "I"))
		body := []ast.Literal{{
			Pred: cSym,
			Args: append(append([]ast.Term{}, e.Bound...), iv),
		}}
		body = append(body, e.Rule.Body...)
		out.Program.Add(ast.Rule{
			Head: ast.Literal{
				Pred: e.Rule.Head.Pred,
				Args: append(append([]ast.Term{}, e.Free...), iv),
			},
			Body: body,
		})
	}

	// Modified recursive rule: p(Y, I) ← p(Y1, I1), succ(I, I1), I ≥ 0,
	// R(B). The level guard I ≥ 0 bounds the downward recursion at the
	// query level; without it the rule would keep decrementing past the
	// answers (the counting literature's "non-negative level" condition).
	if !r.SkipModified {
		recLit := r.Rule.Body[r.RecIndex]
		body := []ast.Literal{}
		var recIdx, headIdx ast.Term = i1Var, iVar
		if !r.PushesModified {
			recIdx = iVar
		}
		body = append(body, ast.Literal{
			Pred: recLit.Pred,
			Args: append(append([]ast.Term{}, r.RecFree...), recIdx),
		})
		if r.PushesModified {
			body = append(body, ast.Atom(succ, iVar, i1Var))
			body = append(body, ast.Atom(syms.Intern(ast.BuiltinGe), iVar, ast.C(term.Int(0))))
		}
		for _, ri := range r.Right {
			body = append(body, r.Rule.Body[ri])
		}
		out.Program.Add(ast.Rule{
			Head: ast.Literal{
				Pred: r.Rule.Head.Pred,
				Args: append(append([]ast.Term{}, r.HeadFree...), headIdx),
			},
			Body: body,
		})
	}

	out.Query = ast.Query{Goal: ast.Literal{
		Pred: an.GoalPred,
		Args: append(append([]ast.Term{}, an.GoalFree...), ast.C(term.Int(0))),
	}}
	return out, nil
}
