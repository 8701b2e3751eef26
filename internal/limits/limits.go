// Package limits is the shared resource-governance core of the engine:
// the one structured resource-limit error every evaluator returns when a
// budget trips, and the cooperative cancellation checker every fixpoint
// loop polls. Keeping both here (below engine, counting and topdown in
// the import graph) is what lets the public package re-export a single
// error vocabulary for all strategies.
package limits

import (
	"context"
	"errors"
	"fmt"
)

// ErrResourceLimit is the sentinel matched by every resource-limit error,
// whichever component tripped it: errors.Is(err, ErrResourceLimit) is the
// one test callers need.
var ErrResourceLimit = errors.New("lincount: resource limit exceeded")

// Limit kinds, naming the budget that tripped.
const (
	// KindIterations: fixpoint rounds within one recursive component.
	KindIterations = "iterations"
	// KindFacts: derived tuples across the whole evaluation.
	KindFacts = "derived-facts"
	// KindTuples: counting nodes + answer tuples of the counting runtime.
	KindTuples = "tuples"
	// KindPasses: global sweeps of the QSQ evaluator.
	KindPasses = "passes"
)

// ResourceLimitError reports that an evaluation exceeded one of its
// budgets. A counting-rewritten program run over cyclic data is unsafe
// and trips a budget instead of looping forever; callers distinguish
// limit trips from real failures with errors.Is(err, ErrResourceLimit).
type ResourceLimitError struct {
	// Kind is the budget that tripped (KindIterations, KindFacts,
	// KindTuples, KindPasses).
	Kind string
	// Limit is the configured budget; Used is the amount consumed when
	// the limit tripped (Used > Limit for counted quantities).
	Limit int64
	Used  int64
	// Component is the evaluator that tripped: "engine",
	// "counting-runtime" or "topdown".
	Component string
}

func (e *ResourceLimitError) Error() string {
	return fmt.Sprintf("%s: %s limit exceeded (used %d of %d; the program may be unsafe on this database)",
		e.Component, e.Kind, e.Used, e.Limit)
}

// Is makes errors.Is(err, ErrResourceLimit) report true.
func (e *ResourceLimitError) Is(target error) bool { return target == ErrResourceLimit }

// CanceledError reports a cooperative stop: the evaluation observed its
// context's cancellation or deadline and unwound cleanly. It unwraps to
// the context's cause, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work as expected.
type CanceledError struct {
	// Component is the evaluator that observed the cancellation.
	Component string
	// Cause is context.Cause of the evaluation context.
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("%s: evaluation interrupted: %v", e.Component, e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// DefaultCheckInterval is how many Tick calls elapse between context
// polls. Fixpoint inner loops advance by at least one inference or probe
// per tick, so cancellation latency is bounded by the time those take —
// microseconds — plus the per-iteration Check calls.
const DefaultCheckInterval = 1024

// Checker polls a context cooperatively. A nil *Checker is a valid no-op
// (every method returns nil), and NewChecker returns nil for contexts
// that can never be canceled, so ungoverned evaluations pay only a nil
// check per tick. Checker is not safe for concurrent use; each evaluation
// takes its own.
type Checker struct {
	ctx       context.Context
	component string
	interval  uint32
	n         uint32
}

// NewChecker returns a checker for ctx, or nil when ctx is nil or can
// never be canceled (ctx.Done() == nil, e.g. context.Background()).
func NewChecker(ctx context.Context, component string) *Checker {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &Checker{ctx: ctx, component: component, interval: DefaultCheckInterval}
}

// Check polls the context now. It returns a *CanceledError wrapping the
// context's cause once the context is done, nil before.
func (c *Checker) Check() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.ctx.Done():
		return &CanceledError{Component: c.component, Cause: context.Cause(c.ctx)}
	default:
		return nil
	}
}

// Tick counts one unit of inner-loop work and polls the context every
// DefaultCheckInterval-th call. Call it on the hot path (per inference,
// per probe); call Check at natural coarse boundaries (per iteration).
func (c *Checker) Tick() error {
	if c == nil {
		return nil
	}
	c.n++
	if c.n%c.interval != 0 {
		return nil
	}
	return c.Check()
}

// TickN counts n units of inner-loop work at once — the batched
// execution paths account a whole batch with one call. It polls the
// context whenever the counter crosses a DefaultCheckInterval boundary,
// so cancellation latency matches n individual Ticks.
func (c *Checker) TickN(n int) error {
	if c == nil || n <= 0 {
		return nil
	}
	prev := c.n
	c.n += uint32(n)
	if c.n/c.interval != prev/c.interval || c.n < prev {
		return c.Check()
	}
	return nil
}
