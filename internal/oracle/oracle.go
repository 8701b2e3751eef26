// Package oracle implements a cross-strategy differential checker: it
// runs one query under several strategies and diffs the sorted answer
// sets against a trusted baseline (semi-naive bottom-up, the naive
// oracle — no rewriting, no cleverness to get wrong). Every strategy of
// the paper is an optimization of that baseline, so any divergence is a
// bug in a rewriting or an evaluator, not a legitimate difference.
//
// The checker also classifies failures, so a chaos harness can assert
// the robustness invariant: under injected faults, every evaluation
// either matches the oracle exactly or returns a *classified* error —
// never a panic, never silently wrong answers.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"lincount"
	"lincount/internal/counting"
	"lincount/internal/magic"
	"lincount/internal/topdown"
)

// Class categorizes the outcome of one evaluation for the chaos
// invariant. Every outcome except Failed is acceptable under fault
// injection; Failed means an error escaped the taxonomy and the
// robustness contract is broken.
type Class int

const (
	// OK: the evaluation succeeded (answers must then match the oracle).
	OK Class = iota
	// NotApplicable: the strategy does not cover the program (e.g. a
	// counting rewriting of a non-linear program). Expected for explicit
	// strategies; Auto never returns it.
	NotApplicable
	// ResourceLimit: a budget tripped (errors.Is ErrResourceLimit).
	ResourceLimit
	// InjectedFault: the fault-injection harness fired (errors.Is
	// ErrInjectedFault), including injected cancellation storms.
	InjectedFault
	// Canceled: the evaluation was canceled or timed out for a real
	// (non-injected) reason.
	Canceled
	// Internal: a recovered panic surfaced as *lincount.InternalError.
	// The containment worked, but it still reports a bug.
	Internal
	// Failed: an error outside the taxonomy — an invariant violation
	// under chaos testing.
	Failed
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case OK:
		return "ok"
	case NotApplicable:
		return "not-applicable"
	case ResourceLimit:
		return "resource-limit"
	case InjectedFault:
		return "injected-fault"
	case Canceled:
		return "canceled"
	case Internal:
		return "internal"
	default:
		return "failed"
	}
}

// Classify places an evaluation error in the taxonomy. A nil error is
// OK. Injected faults are checked before cancellation so that an
// injected cancellation storm (a CanceledError whose cause is the
// injection sentinel) classifies as InjectedFault.
func Classify(err error) Class {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, counting.ErrNotLinear),
		errors.Is(err, counting.ErrNotApplicable),
		errors.Is(err, counting.ErrNoBoundArgs),
		errors.Is(err, magic.ErrNoBoundArgs),
		errors.Is(err, topdown.ErrUnsupported):
		return NotApplicable
	case errors.Is(err, lincount.ErrInjectedFault):
		return InjectedFault
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return Canceled
	case errors.Is(err, lincount.ErrResourceLimit):
		return ResourceLimit
	default:
		var ie *lincount.InternalError
		if errors.As(err, &ie) {
			return Internal
		}
		return Failed
	}
}

// Run is the outcome of one strategy's evaluation.
type Run struct {
	// Strategy is the strategy that was requested.
	Strategy lincount.Strategy
	// Class categorizes the outcome.
	Class Class
	// Err is the failure message (empty on OK).
	Err string
	// Answers are the sorted answer rows (nil unless OK).
	Answers [][]string
	// Degraded counts the fallback attempts Auto burned before
	// succeeding (0 for explicit strategies and non-degraded runs).
	Degraded int
	// Resolved is the strategy the run resolved to before any fallback:
	// the planner's pick on this data for Auto, the requested strategy
	// otherwise (zero unless OK).
	Resolved lincount.Strategy
}

// Mismatch reports a strategy whose answers diverge from the baseline.
type Mismatch struct {
	// Strategy is the diverging strategy.
	Strategy lincount.Strategy
	// Missing rows are in the baseline but not in the run.
	Missing []string
	// Extra rows are in the run but not in the baseline.
	Extra []string
}

// Report is the outcome of one differential check.
type Report struct {
	// Query is the checked query text.
	Query string
	// Baseline holds the naive oracle's sorted answer rows.
	Baseline [][]string
	// Runs holds one entry per requested strategy, in order.
	Runs []Run
	// Mismatches lists the strategies whose answers diverge from the
	// baseline. Empty means every successful run agreed.
	Mismatches []Mismatch
}

// OK reports whether the check passed: no mismatches and no run in the
// Failed class. Errors in the rest of the taxonomy (not-applicable,
// budget trips, injected faults, cancellation, contained panics) are
// acceptable outcomes, not divergences.
func (r *Report) OK() bool {
	if len(r.Mismatches) > 0 {
		return false
	}
	for _, run := range r.Runs {
		if run.Class == Failed {
			return false
		}
	}
	return true
}

// String renders a compact human-readable summary, one line per run.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s: baseline %d answer(s)\n", r.Query, len(r.Baseline))
	bad := map[lincount.Strategy]*Mismatch{}
	for i := range r.Mismatches {
		bad[r.Mismatches[i].Strategy] = &r.Mismatches[i]
	}
	for _, run := range r.Runs {
		switch {
		case bad[run.Strategy] != nil:
			m := bad[run.Strategy]
			fmt.Fprintf(&b, "  %-18s MISMATCH (%d missing, %d extra)\n", run.Strategy, len(m.Missing), len(m.Extra))
		case run.Class == OK:
			note := ""
			if run.Resolved != run.Strategy {
				note = fmt.Sprintf(" via %s", run.Resolved)
			}
			if run.Degraded > 0 {
				note += fmt.Sprintf(" (degraded %dx)", run.Degraded)
			}
			fmt.Fprintf(&b, "  %-18s ok, %d answer(s)%s\n", run.Strategy, len(run.Answers), note)
		default:
			fmt.Fprintf(&b, "  %-18s %s: %s\n", run.Strategy, run.Class, run.Err)
		}
	}
	return b.String()
}

// rowKey joins a formatted answer row into one comparable string.
func rowKey(row []string) string { return strings.Join(row, "\t") }

// diffAnswers computes the symmetric difference of two sorted answer
// sets, as rendered rows.
func diffAnswers(base, got [][]string) (missing, extra []string) {
	baseSet := make(map[string]bool, len(base))
	for _, r := range base {
		baseSet[rowKey(r)] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, r := range got {
		k := rowKey(r)
		gotSet[k] = true
		if !baseSet[k] {
			extra = append(extra, k)
		}
	}
	for _, r := range base {
		if k := rowKey(r); !gotSet[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return missing, extra
}

// Check runs query under every strategy in strategies and diffs each
// successful run against the naive oracle (semi-naive, evaluated with
// baseOpts — pass the budgets but NOT the fault schedule there, or the
// oracle itself may fail). Each candidate run uses runOpts, which may
// include lincount.WithFaultInjection. Check returns an error only when
// the baseline itself fails; candidate failures are classified in the
// report.
func Check(ctx context.Context, p *lincount.Program, db *lincount.Database, query string, strategies []lincount.Strategy, baseOpts, runOpts []lincount.Option) (*Report, error) {
	base, err := lincount.EvalContext(ctx, p, db, query, lincount.SemiNaive, baseOpts...)
	if err != nil {
		return nil, fmt.Errorf("oracle: baseline semi-naive failed: %w", err)
	}
	rep := &Report{Query: query, Baseline: base.Answers}
	for _, s := range strategies {
		res, err := lincount.EvalContext(ctx, p, db, query, s, runOpts...)
		run := Run{Strategy: s, Class: Classify(err)}
		if err != nil {
			run.Err = err.Error()
			rep.Runs = append(rep.Runs, run)
			continue
		}
		run.Answers = res.Answers
		run.Degraded = len(res.Degraded)
		run.Resolved = res.Resolved
		rep.Runs = append(rep.Runs, run)
		missing, extra := diffAnswers(base.Answers, res.Answers)
		if len(missing) > 0 || len(extra) > 0 {
			rep.Mismatches = append(rep.Mismatches, Mismatch{Strategy: s, Missing: missing, Extra: extra})
		}
	}
	return rep, nil
}
