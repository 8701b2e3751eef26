// Package plan is the query-compilation pipeline: it turns a (program,
// query) pair into a CompiledQuery — an intermediate representation
// carrying the adornment, the linearity analysis, the strategy's
// rewritten program and the execution entry point — via a pass manager,
// caches compiled plans in an LRU keyed by (query, strategy), and lists
// the candidate strategies of Auto's structural chain with cost
// estimates over per-relation cardinality statistics. Execution
// (CompiledQuery.Execute) runs a compiled plan; the facade (package
// lincount) plans, caches and formats around it.
package plan

import "fmt"

// Strategy selects how a query is evaluated. The canonical definition
// lives here so the compilation pipeline, the plan cache and the planner
// can name strategies without importing the facade; package lincount
// re-exports the type and constants unchanged.
type Strategy int

const (
	// Auto analyzes the program and picks by its class alone: the
	// reduced counting program for right-/left-/mixed-linear programs
	// whose list rewrite is safe, the counting runtime for other linear
	// programs (safe on cyclic data, and keyed by path shape where one
	// reaches a node), and magic sets otherwise.
	Auto Strategy = iota
	// Naive evaluates the program bottom-up without rewriting, recomputing
	// every rule each iteration. Baseline of baselines.
	Naive
	// SemiNaive evaluates bottom-up with differential iteration.
	SemiNaive
	// Magic applies the magic-set rewriting, then evaluates semi-naively.
	Magic
	// CountingClassic applies the classical counting method (integer
	// distance index). Applicable only to a single linear recursive rule
	// with disjoint left and right parts; unsafe on cyclic data.
	CountingClassic
	// Counting applies the extended counting rewriting (Algorithm 1 of
	// the paper) with path arguments. Applicable to every linear program;
	// unsafe on cyclic data (use CountingRuntime there).
	Counting
	// CountingReduced applies Algorithm 1 followed by the reduction of
	// Algorithm 3.
	CountingReduced
	// CountingRuntime evaluates with the pointer-based counting runtime
	// (Algorithm 2), which is safe on cyclic databases.
	CountingRuntime
	// MagicSup applies the supplementary magic-set rewriting (Beeri &
	// Ramakrishnan), which materializes rule prefixes so they are not
	// re-joined per derived body literal.
	MagicSup
	// QSQ evaluates top-down with Query-SubQuery (Vieille), the
	// operational counterpart of magic sets from the [4] comparison
	// suite. Negated derived literals are not supported.
	QSQ
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Naive:
		return "naive"
	case SemiNaive:
		return "semi-naive"
	case Magic:
		return "magic"
	case CountingClassic:
		return "counting-classic"
	case Counting:
		return "counting"
	case CountingReduced:
		return "counting-reduced"
	case CountingRuntime:
		return "counting-runtime"
	case MagicSup:
		return "magic-sup"
	case QSQ:
		return "qsq"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy converts a name (as printed by String) to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for s := Auto; s <= QSQ; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return Auto, fmt.Errorf("lincount: unknown strategy %q", name)
}

// Strategies lists all concrete strategies (excluding Auto), for sweeps.
func Strategies() []Strategy {
	return []Strategy{Naive, SemiNaive, Magic, MagicSup, QSQ, CountingClassic, Counting, CountingReduced, CountingRuntime}
}
