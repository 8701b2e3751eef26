package lincount

import (
	"fmt"

	"lincount/internal/database"
	"lincount/internal/faultinject"
	"lincount/internal/limits"
)

// ErrResourceLimit is the sentinel every resource-limit error matches:
// errors.Is(err, ErrResourceLimit) reports whether an evaluation stopped
// because a budget tripped (iterations, derived facts, counting tuples
// or QSQ passes), as opposed to failing for a real reason. Budget trips
// are the engine's defense against programs that are unsafe on the given
// data — a counting rewriting over a cyclic database, for instance.
var ErrResourceLimit = limits.ErrResourceLimit

// ResourceLimitError is the structured error a budget trip returns. Kind
// names the budget (LimitIterations, LimitFacts, LimitTuples,
// LimitPasses), Limit/Used quantify it, and Component names the
// evaluator that tripped ("engine", "counting-runtime", "topdown").
// errors.Is(err, ErrResourceLimit) matches it.
type ResourceLimitError = limits.ResourceLimitError

// CanceledError is the structured error a canceled or deadline-expired
// evaluation returns. It unwraps to the context's cause, so
// errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work as expected.
type CanceledError = limits.CanceledError

// Budget kinds carried in ResourceLimitError.Kind.
const (
	// LimitIterations: fixpoint rounds within one recursive component
	// (WithMaxIterations).
	LimitIterations = limits.KindIterations
	// LimitFacts: derived tuples across the evaluation, seeds included
	// (WithMaxDerivedFacts).
	LimitFacts = limits.KindFacts
	// LimitTuples: counting nodes + answer tuples of the counting
	// runtime (WithMaxDerivedFacts for the CountingRuntime strategy).
	LimitTuples = limits.KindTuples
	// LimitPasses: global sweeps of the QSQ evaluator
	// (WithMaxIterations for the QSQ strategy).
	LimitPasses = limits.KindPasses
)

// ErrInjectedFault is the sentinel every injected fault matches:
// errors.Is(err, ErrInjectedFault) reports whether an evaluation failed
// (or was canceled) because the fault-injection harness armed via
// WithFaultInjection fired, as opposed to failing for a real reason.
// Injected faults are retryable for the Auto degradation chain.
var ErrInjectedFault = faultinject.ErrInjected

// SnapshotCorruptError reports a snapshot (see Database.Save) that
// failed its CRC integrity check on load: truncation or bit rot. The
// database is untouched when LoadSnapshot returns it.
type SnapshotCorruptError = database.SnapshotCorruptError

// InternalError reports a panic recovered at the Eval boundary: a bug in
// a rewriting or an evaluator, contained so that one bad query cannot
// crash a process embedding the library. Strategy is the concrete
// strategy that was running and Stack the goroutine stack captured at
// the recovery point — include both when reporting the bug.
type InternalError struct {
	// Strategy is the concrete strategy (Auto already resolved) whose
	// evaluation panicked.
	Strategy Strategy
	// Value is the recovered panic value.
	Value any
	// Stack is the formatted goroutine stack at the recovery point.
	Stack string
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("lincount: internal error evaluating with %s (please report): %v", e.Strategy, e.Value)
}
