package plan

import (
	"errors"
	"fmt"
	"sort"

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

// Rank is the data-blind ranking: RankWith without a verdict.
func Rank(sh *Shared, stats StatsFunc) []Choice { return RankWith(sh, stats, nil) }

// RankWith orders the candidate strategies for the shared (program, query)
// pair, cheapest estimated cost first. The result is the Auto
// degradation chain: the head is the planner's pick and the tail the
// fallbacks, always ending in semi-naive, which is applicable to
// everything. Only strategies whose applicability gates pass are
// candidates, so every entry can at least be attempted; cost estimates
// order them.
//
// The cost model counts the base facts each method visits, derived from
// the analysis decomposition: the reduced counting program visits the
// left-part and exit relations (B+E); the counting runtime additionally
// walks the right parts during answer reconstruction (B+E+R); magic
// sets re-join the same relations per iteration level, modeled as
// 2·(B+E+R); and semi-naive visits every reachable relation per
// fixpoint round, modeled as 4·T where T is the total reachable base
// cardinality. Since B+E+R ≤ T by construction, the model is calibrated
// so that with no statistics (or an empty database) the ranking
// degenerates to the structurally proven order the old resolver used —
// statistics sharpen the margins and make the estimates visible, they
// cannot rank an inapplicable strategy first.
//
// verdict supplies the one thing whole-relation cardinalities cannot:
// what the query's binding reaches. It is asked only when the answer can
// change the ranking — the program is in the counting class and has no
// reduced rewrite, which would head the ranking whatever the data — and
// may be nil, or return nil, for a data-blind ranking. Under a verdict of
// N nodes and M arcs the three binding-propagating candidates are costed
// from what the binding reaches instead of from B, E and R: the left
// parts visit the M arcs, the exit rules are tried once per node
// (E' = min(E, N)) and the right parts undo each arc (R' = min(R, M)),
// W = M + E' + R' in all. The extended counting rewrite (Algorithm 1 on
// the engine) is a candidate exactly when the verdict is layered: on a
// cyclic graph its path arguments grow without bound, and on an acyclic
// one where paths of several shapes meet in a node its counting set holds
// a tuple per shape (§3.4's n² case) where the runtime holds the node
// once. It costs W; the runtime pays one interned node per reached value
// on top, W + N − 1; magic sets rejoin per level, 2·W. N − 1 ≤ M ≤ W, so
// the order counting ≤ runtime ≤ magic holds for every verdict.
func RankWith(sh *Shared, stats StatsFunc, verdict func() *Verdict) []Choice {
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
		reduced := false
		switch class := an.Classify(); class {
		case counting.RightLinearClass, counting.LeftLinearClass, counting.MixedLinearClass:
			if reduced = an.ListRewriteSafe(); reduced {
				choices = append(choices, Choice{Strategy: CountingReduced, Cost: b + e,
					Reason: fmt.Sprintf("%v and list-rewrite safe; reduction skips path reconstruction (~%.0f left-part+exit facts)", class, b+e)})
			}
		}
		var v *Verdict
		if !reduced && verdict != nil {
			v = verdict()
		}
		if v == nil {
			choices = append(choices, Choice{Strategy: CountingRuntime, Cost: b + e + r,
				Reason: fmt.Sprintf("linear program; pointer-based counting is cycle-safe (~%.0f clique-relation facts)", b+e+r)})
			choices = append(choices, Choice{Strategy: Magic, Cost: 2 * (b + e + r),
				Reason: fmt.Sprintf("binding propagation restricts evaluation to the query-reachable subgraph, rejoined per level (~%.0f facts)", b+e+r)})
		} else {
			n, m := float64(v.Nodes), float64(v.Arcs)
			w := m + min(e, n) + min(r, m)
			graph := fmt.Sprintf("reachable left graph cyclic (%d back arcs): %d nodes, %d arcs", v.BackArcs, v.Nodes, v.Arcs)
			switch {
			case v.Layered:
				graph = fmt.Sprintf("reachable left graph acyclic: %d nodes, %d arcs, one path shape per node", v.Nodes, v.Arcs)
				if an.ListRewriteSafe() {
					choices = append(choices, Choice{Strategy: Counting, Cost: w,
						Reason: fmt.Sprintf("%s; the extended counting rewrite is safe and visits each arc once per direction (~%.0f facts)", graph, w)})
				}
			case v.Acyclic:
				graph = fmt.Sprintf("reachable left graph acyclic: %d nodes, %d arcs, several path shapes per node (the list rewrite's counting set multiplies)", v.Nodes, v.Arcs)
			}
			choices = append(choices, Choice{Strategy: CountingRuntime, Cost: w + n - 1,
				Reason: fmt.Sprintf("%s; pointer-based counting is cycle-safe and interns every node (~%.0f facts)", graph, w+n-1)})
			choices = append(choices, Choice{Strategy: Magic, Cost: 2 * w,
				Reason: fmt.Sprintf("%s; binding propagation reaches the same subgraph, rejoined per level (~%.0f facts)", graph, w)})
		}
	} else {
		choices = append(choices, Choice{Strategy: Magic, Cost: 2 * total,
			Reason: fmt.Sprintf("outside the counting class (%v); magic sets restrict semi-naive evaluation to the bound subgraph (~%.0f reachable facts)", anErr, total)})
	}
	choices = append(choices, semi("always applicable"))

	sort.SliceStable(choices, func(i, j int) bool {
		if choices[i].Cost != choices[j].Cost {
			return choices[i].Cost < choices[j].Cost
		}
		return tiePriority(choices[i].Strategy) < tiePriority(choices[j].Strategy)
	})
	return choices
}

// tiePriority breaks cost ties in proven-structure order: the rewrites
// beat the runtime (no pointer arenas), the reduced one first, which
// beats magic (counting sets are smaller than magic sets for linear
// programs, §6 of the paper), which beats raw semi-naive.
func tiePriority(s Strategy) int {
	switch s {
	case CountingReduced:
		return 0
	case Counting:
		return 1
	case CountingRuntime:
		return 2
	case Magic:
		return 3
	default:
		return 4
	}
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
