package plan

import (
	"errors"
	"fmt"

	"lincount/internal/counting"
	"lincount/internal/symtab"
)

// StatsFunc supplies the planner's data statistics: the cardinality of a
// predicate by its original (unadorned) symbol — base facts in the
// database plus fact rules embedded in the program. A nil StatsFunc
// plans structurally (all cardinalities zero), which degenerates to the
// proven applicability order.
type StatsFunc func(pred symtab.Sym) int64

// Choice is one ranked candidate strategy.
type Choice struct {
	Strategy Strategy
	// Cost is the planner's work estimate in visited-fact units; lower
	// is better. Estimates are comparable only within one ranking.
	Cost float64
	// Reason explains the estimate ("linear program; counting visits
	// ~N left-part facts", …) for explain output and debugging.
	Reason string
}

// Rank returns the candidate strategies for the shared (program, query)
// pair, each with a cost estimate. The result is the Auto degradation
// chain: the head is the planner's pick and the tail the fallbacks,
// always ending in semi-naive, which is applicable to everything. Only
// strategies whose applicability gates pass are candidates, so every
// entry can at least be attempted.
//
// The chain is structural: the reduced counting program when the program
// is right-, left- or mixed-linear and the list rewrite is safe, then the
// counting runtime for every linear program (safe on cyclic data, and no
// larger than the list rewrite where one path shape reaches a node, since
// it keys answers by shape class there), then magic sets, then
// semi-naive. Nothing in it asks what the query's binding reaches in the
// data.
//
// The estimates are what lincount-explain prints and the q-error is
// measured against. The cost model counts the base facts each method visits, derived from
// the analysis decomposition: the reduced counting program visits the
// left-part and exit relations (B+E); the counting runtime additionally
// walks the right parts during answer reconstruction (B+E+R); magic
// sets re-join the same relations per iteration level, modeled as
// 2·(B+E+R); and semi-naive visits every reachable relation per
// fixpoint round, modeled as 4·T where T is the total reachable base
// cardinality. Since B+E+R ≤ T by construction, the model is calibrated
// so that the estimates usually ascend along the chain.
func Rank(sh *Shared, stats StatsFunc) []Choice {
	if stats == nil {
		stats = func(symtab.Sym) int64 { return 0 }
	}
	total := float64(reachableFacts(sh, stats))
	semi := func(reason string) Choice {
		return Choice{Strategy: SemiNaive, Cost: 4 * total,
			Reason: fmt.Sprintf("%s; full bottom-up fixpoint over ~%.0f reachable base facts", reason, total)}
	}

	if !sh.GoalDerived() {
		return []Choice{semi("goal is extensional (no rules define it)")}
	}
	a, err := sh.Adorned()
	if err != nil {
		return []Choice{semi("goal is not adornable: " + err.Error())}
	}
	if len(a.Program.Rules) == 0 {
		return []Choice{semi("goal is purely extensional after adornment")}
	}
	an, anErr := sh.Analysis()
	if anErr != nil && errors.Is(anErr, counting.ErrNoBoundArgs) {
		// No bound arguments: neither counting nor magic sets can
		// specialize anything.
		return []Choice{semi("query binds no arguments; sideways information passing has nothing to propagate")}
	}

	var choices []Choice
	if anErr == nil {
		b, e, r := partCosts(an, stats)
		switch class := an.Classify(); class {
		case counting.RightLinearClass, counting.LeftLinearClass, counting.MixedLinearClass:
			if an.ListRewriteSafe() {
				choices = append(choices, Choice{Strategy: CountingReduced, Cost: b + e,
					Reason: fmt.Sprintf("%v and list-rewrite safe; reduction skips path reconstruction (~%.0f left-part+exit facts)", class, b+e)})
			}
		}
		choices = append(choices, Choice{Strategy: CountingRuntime, Cost: b + e + r,
			Reason: fmt.Sprintf("linear program; pointer-based counting is cycle-safe (~%.0f clique-relation facts)", b+e+r)})
		choices = append(choices, Choice{Strategy: Magic, Cost: 2 * (b + e + r),
			Reason: fmt.Sprintf("binding propagation restricts evaluation to the query-reachable subgraph, rejoined per level (~%.0f facts)", b+e+r)})
	} else {
		choices = append(choices, Choice{Strategy: Magic, Cost: 2 * total,
			Reason: fmt.Sprintf("outside the counting class (%v); magic sets restrict semi-naive evaluation to the bound subgraph (~%.0f reachable facts)", anErr, total)})
	}
	choices = append(choices, semi("always applicable"))

	return choices
}

// reachableFacts sums the cardinalities of every predicate reachable
// from the goal in the original program — the planner's T.
func reachableFacts(sh *Shared, stats StatsFunc) int64 {
	prog, goal := sh.prog, sh.query.Goal.Pred
	seen := map[symtab.Sym]bool{goal: true}
	work := []symtab.Sym{goal}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range prog.Rules {
			if r.Head.Pred != p {
				continue
			}
			for _, l := range r.Body {
				if !seen[l.Pred] {
					seen[l.Pred] = true
					work = append(work, l.Pred)
				}
			}
		}
	}
	var total int64
	for p := range seen {
		total += stats(p)
	}
	return total
}

// partCosts sums the distinct non-clique predicate cardinalities of the
// analysis decomposition: b for the left parts, e for the exit rules,
// r for the right parts. A predicate appearing in several parts counts
// once per part it appears in but once within each (distinct-set sums),
// so b+e+r never exceeds a multiple of the reachable total.
func partCosts(an *counting.Analysis, stats StatsFunc) (b, e, r float64) {
	base := func(p symtab.Sym) symtab.Sym {
		if orig, ok := an.Adorned.Base[p]; ok {
			return orig
		}
		return p
	}
	sumSet := func(preds map[symtab.Sym]bool) float64 {
		var n int64
		for p := range preds {
			n += stats(p)
		}
		return float64(n)
	}
	left, right, exit := map[symtab.Sym]bool{}, map[symtab.Sym]bool{}, map[symtab.Sym]bool{}
	for i := range an.Rec {
		rr := &an.Rec[i]
		for _, idx := range rr.Left {
			left[base(rr.Rule.Body[idx].Pred)] = true
		}
		for _, idx := range rr.Right {
			right[base(rr.Rule.Body[idx].Pred)] = true
		}
	}
	for _, ex := range an.Exit {
		for _, l := range ex.Rule.Body {
			exit[base(l.Pred)] = true
		}
	}
	return sumSet(left), sumSet(exit), sumSet(right)
}
